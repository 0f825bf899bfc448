"""Journal-discipline sanitizer: each JD rule on synthetic sources, the
seeded-mutation acceptance tests on scratch copies of the real modules,
the RL007-RL010 determinism rules, and the live tree staying clean."""

import ast

from repro.analysis.repolint import (
    default_source_root,
    lint_determinism_source,
    lint_determinism_tree,
)
from repro.analysis.sanitize import (
    JOURNAL_MODULES,
    _declared_sites,
    run_sanitize,
    sanitize_sources,
    sanitize_tree,
)


def _rule_ids(findings):
    return sorted({f.rule_id for f in findings})


def _jd(source, rel="repro/core/toy.py"):
    return sanitize_sources({rel: source})


DECL = (
    'TOY_CRASH_SITES = (\n'
    '    "op:begin",\n'
    '    "op:done",\n'
    ')\n'
)

GOOD = DECL + (
    "class Thing:\n"
    "    def op(self):\n"
    '        txn = self.journal.begin("op")\n'
    '        self.journal.checkpoint("op:begin")\n'
    "        self.space.mmap(4096)\n"
    '        self.journal.step(txn, "mapped")\n'
    '        self.journal.checkpoint("op:done")\n'
    "        self.table.register(m)\n"
    "        self.journal.commit(txn)\n"
)


class TestJournalDiscipline:
    def test_disciplined_function_is_clean(self):
        assert _jd(GOOD) == []

    def test_jd001_mutation_outside_transaction(self):
        source = (
            "class T:\n"
            "    def op(self):\n"
            "        self.space.mmap(4096)\n"
        )
        findings = _jd(source)
        assert _rule_ids(findings) == ["JD001"]
        assert findings[0].location == "repro/core/toy.py:3"
        assert "op()" in findings[0].detail

    def test_jd001_attribute_write(self):
        source = (
            "class T:\n"
            "    def op(self, block):\n"
            "        block.ref_count = 1\n"
        )
        assert _rule_ids(_jd(source)) == ["JD001"]

    def test_jd001_waiver_suppresses(self):
        source = (
            "class T:\n"
            "    def op(self):\n"
            "        self.space.mmap(4096)  # lint: waive[JD001]\n"
        )
        assert _jd(source) == []

    def test_jd002_two_mutations_no_record_between(self):
        source = (
            "class T:\n"
            "    def op(self):\n"
            '        txn = self.journal.begin("op")\n'
            "        self.space.mmap(4096)\n"
            "        self.space.munmap(va)\n"
            "        self.journal.commit(txn)\n"
        )
        findings = _jd(source)
        assert _rule_ids(findings) == ["JD002"]
        assert findings[0].location.endswith(":5")

    def test_jd002_attr_run_counts_as_one_step(self):
        # consecutive attribute-state writes model one logical
        # activation; a *call* mutation after them still needs a record
        source = (
            "class T:\n"
            "    def op(self, block):\n"
            '        txn = self.journal.begin("op")\n'
            "        block.state = 1\n"
            "        block.ref_count = 1\n"
            "        block.generation += 1\n"
            "        self.journal.commit(txn)\n"
        )
        assert _jd(source) == []

    def test_jd002_call_after_attr_run_still_fires(self):
        source = (
            "class T:\n"
            "    def op(self, block):\n"
            '        txn = self.journal.begin("op")\n'
            "        block.state = 1\n"
            "        self._free.append(block)\n"
            "        self.journal.commit(txn)\n"
        )
        assert _rule_ids(_jd(source)) == ["JD002"]

    def test_except_handler_bodies_are_exempt(self):
        source = (
            "class T:\n"
            "    def op(self):\n"
            '        txn = self.journal.begin("op")\n'
            "        try:\n"
            '            self.journal.step(txn, "go")\n'
            "            self.space.mmap(4096)\n"
            "        except RuntimeError:\n"
            "            self.space.munmap(va)\n"
            "            self.table.release(m)\n"
            "        self.journal.commit(txn)\n"
        )
        assert _jd(source) == []

    def test_jd003_undeclared_literal_site(self):
        source = DECL + (
            "class T:\n"
            "    def op(self):\n"
            '        txn = self.journal.begin("op")\n'
            '        self.journal.checkpoint("op:unknown")\n'
            "        self.journal.commit(txn)\n"
        )
        findings = _jd(source)
        assert "JD003" in _rule_ids(findings)
        assert any("op:unknown" in f.message for f in findings)

    def test_jd003_non_literal_site_outside_forwarder(self):
        source = (
            "class T:\n"
            "    def op(self, site):\n"
            "        self.journal.checkpoint(site)\n"
        )
        assert _rule_ids(_jd(source)) == ["JD003"]

    def test_non_literal_site_allowed_in_forwarder(self):
        source = (
            "class T:\n"
            "    def _checkpoint(self, site):\n"
            "        self.journal.checkpoint(site)\n"
        )
        assert _jd(source) == []

    def test_jd004_declared_site_never_checkpointed(self):
        findings = _jd(DECL)
        assert _rule_ids(findings) == ["JD004"]
        assert len(findings) == 2  # both sites dead
        assert any("op:begin" in f.message for f in findings)

    def test_jd004_spans_files(self):
        # declaration in one module, discharging checkpoint in another
        checkpoints = (
            "class T:\n"
            "    def op(self):\n"
            '        txn = self.journal.begin("op")\n'
            '        self.journal.checkpoint("op:begin")\n'
            '        self.journal.checkpoint("op:done")\n'
            "        self.journal.commit(txn)\n"
        )
        findings = sanitize_sources({
            "repro/core/decl.py": DECL,
            "repro/core/impl.py": checkpoints,
        })
        assert findings == []

    def test_jd005_begin_without_commit(self):
        source = (
            "class T:\n"
            "    def op(self):\n"
            '        txn = self.journal.begin("op")\n'
            '        self.journal.step(txn, "go")\n'
            "        self.space.mmap(4096)\n"
        )
        findings = _jd(source)
        assert _rule_ids(findings) == ["JD005"]
        assert "op()" in findings[0].message

    def test_syntax_error_reported_not_raised(self):
        findings = _jd("def broken(:\n")
        assert _rule_ids(findings) == ["JD001"]
        assert "does not parse" in findings[0].message


def _real_sources():
    root = default_source_root()
    return {
        rel: (root / rel).read_text(encoding="utf-8")
        for rel in JOURNAL_MODULES
    }


class TestSeededMutations:
    """The ISSUE acceptance tests: mutate a scratch copy of the real
    sources and prove the sanitizer notices."""

    def test_real_modules_are_clean(self):
        assert sanitize_sources(_real_sources()) == []

    def test_removing_a_checkpoint_fires_jd004(self):
        sources = _real_sources()
        needle = 'self._jcheckpoint("alloc:registered")'
        assert needle in sources["repro/core/pimalloc.py"]
        sources["repro/core/pimalloc.py"] = sources[
            "repro/core/pimalloc.py"
        ].replace(needle, "pass")
        findings = sanitize_sources(sources)
        assert any(
            f.rule_id == "JD004" and "alloc:registered" in f.message
            for f in findings
        )

    def test_removing_a_begin_fires_jd001(self):
        sources = _real_sources()
        needle = 'txn = self.journal.begin("kvalloc")'
        assert needle in sources["repro/kvcache/pool.py"]
        sources["repro/kvcache/pool.py"] = sources[
            "repro/kvcache/pool.py"
        ].replace(needle, "txn = None")
        findings = sanitize_sources(sources)
        assert any(f.rule_id == "JD001" for f in findings)

    def test_removing_the_run_free_begin_fires_jd001(self):
        sources = _real_sources()
        needle = 'txn = self.journal.begin("kvfree", block_ids=block_ids)'
        assert needle in sources["repro/kvcache/pool.py"]
        sources["repro/kvcache/pool.py"] = sources[
            "repro/kvcache/pool.py"
        ].replace(needle, "txn = None")
        findings = sanitize_sources(sources)
        assert any(
            f.rule_id == "JD001" and "free_run" in f.detail for f in findings
        )

    def test_removing_a_site_declaration_fires_jd003(self):
        sources = _real_sources()
        needle = '"alloc:registered",'
        assert needle in sources["repro/core/journal.py"]
        sources["repro/core/journal.py"] = sources[
            "repro/core/journal.py"
        ].replace(needle, "")
        findings = sanitize_sources(sources)
        assert any(
            f.rule_id == "JD003" and "alloc:registered" in f.message
            for f in findings
        )


DET = lint_determinism_source


class TestRl007SetIteration:
    def test_set_literal_in_for(self):
        source = "for x in {1, 2}:\n    f(x)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL007"]

    def test_set_call_in_comprehension(self):
        source = "ys = [f(x) for x in set(xs)]\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL007"]

    def test_set_algebra(self):
        source = "for x in {1} | other:\n    f(x)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL007"]

    def test_sorted_wrapper_allowed(self):
        source = "for x in sorted({1, 2}):\n    f(x)\n"
        assert DET(source, "repro/core/x.py") == []

    def test_dict_views_allowed(self):
        source = "for k in d.keys():\n    f(k)\n"
        assert DET(source, "repro/core/x.py") == []

    def test_waiver_suppresses(self):
        source = "for x in {1, 2}:  # lint: waive[RL007]\n    f(x)\n"
        assert DET(source, "repro/core/x.py") == []


class TestRl008HashOrderKey:
    def test_sorted_key_id(self):
        source = "ys = sorted(xs, key=id)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL008"]

    def test_sort_key_lambda_hash(self):
        source = "xs.sort(key=lambda v: hash(v))\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL008"]

    def test_value_key_allowed(self):
        assert DET("ys = sorted(xs, key=str)\n", "repro/core/x.py") == []


class TestRl009UnseededRng:
    def test_argless_random(self):
        source = "r = random.Random()\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL009"]

    def test_argless_default_rng(self):
        source = "r = np.random.default_rng()\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL009"]

    def test_system_random_even_seeded(self):
        source = "r = random.SystemRandom(5)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL009"]

    def test_seeded_rng_allowed(self):
        assert DET("r = random.Random(7)\n", "repro/core/x.py") == []
        assert DET("r = default_rng(3)\n", "repro/core/x.py") == []


class TestRl010FsAndEnvOrder:
    def test_listdir(self):
        source = "names = os.listdir(p)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL010"]

    def test_sorted_listdir_allowed(self):
        assert DET("names = sorted(os.listdir(p))\n",
                   "repro/core/x.py") == []

    def test_rglob(self):
        source = "for p in root.rglob('*.py'):\n    f(p)\n"
        assert _rule_ids(DET(source, "repro/core/x.py")) == ["RL010"]

    def test_environ_reads(self):
        assert _rule_ids(DET("v = os.environ['X']\n",
                             "repro/core/x.py")) == ["RL010"]
        assert _rule_ids(DET("v = os.environ.get('X')\n",
                             "repro/core/x.py")) == ["RL010"]
        assert _rule_ids(DET("v = os.getenv('X')\n",
                             "repro/core/x.py")) == ["RL010"]

    def test_cli_module_exempt(self):
        assert DET("v = os.environ.get('X')\n", "repro/cli.py") == []


class TestLiveTree:
    def test_journaled_modules_exist_and_scan(self):
        findings, checked = sanitize_tree()
        assert findings == []
        assert checked == len(JOURNAL_MODULES)

    def test_determinism_sweep_is_clean(self):
        findings, checked = lint_determinism_tree()
        assert findings == []
        assert checked > 50  # the whole src/ tree, not just one package

    def test_run_sanitize_combines_both(self):
        findings, checked = run_sanitize()
        assert findings == []
        assert checked > len(JOURNAL_MODULES)

    def test_declared_sites_match_live_registries(self):
        """The parsed declarations the sanitizer checks against must be
        exactly the live tuples the campaigns import."""
        from repro.core.journal import CRASH_SITES, MIGRATE_CRASH_SITES
        from repro.kvcache.pool import KV_CRASH_SITES

        root = default_source_root()
        parsed = set()
        for rel in JOURNAL_MODULES:
            tree = ast.parse((root / rel).read_text(encoding="utf-8"))
            parsed |= {site for site, _, _ in _declared_sites(tree)}
        live = set(CRASH_SITES) | set(MIGRATE_CRASH_SITES) | set(KV_CRASH_SITES)
        assert parsed == live
