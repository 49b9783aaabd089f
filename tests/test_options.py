"""AnalysisOptions: spec grammar, validation, knob threading."""

import pytest

from repro import AnalysisOptions, analyze
from repro.perf.bench import clear_caches


def _small_program():
    from repro.ir import ProgramBuilder

    bld = ProgramBuilder("opts")
    N = bld.param("N", minimum=8)
    A = bld.array("A", N)
    with bld.phase("F1") as ph:
        with ph.doall("i", 0, N - 1) as i:
            ph.write(A, i)
    with bld.phase("F2") as ph:
        with ph.doall("i", 0, N - 1) as i:
            ph.read(A, i)
    return bld.build(), {"N": 64}


class TestSpecGrammar:
    def test_from_spec_parses_every_key(self):
        opts = AnalysisOptions.from_spec(
            "cache=/tmp/lcg.pkl,refutation=off,"
            "fast_path=symbolic,trace=on,metrics=on"
        )
        assert opts.analysis_cache == "/tmp/lcg.pkl"
        assert opts.refutation is False
        assert opts.dsm_fast_path == "symbolic"
        assert opts.trace is True and opts.metrics is True

    def test_cache_accepts_on_off(self):
        assert AnalysisOptions.from_spec("cache=on").analysis_cache is True
        assert AnalysisOptions.from_spec("cache=off").analysis_cache is False

    def test_long_field_names_are_aliases(self):
        opts = AnalysisOptions.from_spec(
            "analysis_cache=off,dsm_fast_path=wide"
        )
        assert opts.analysis_cache is False
        assert opts.dsm_fast_path == "wide"

    def test_round_trip(self):
        for spec in (
            "",
            "fast_path=wide",
            "cache=/tmp/c.pkl,alpha=2.5,beta=0.5",
            "refutation=off,fast_path=off,trace=on,metrics=on",
            "plan=on",
            "plan=off,plan_cache=/tmp/plans.pkl",
        ):
            opts = AnalysisOptions.from_spec(spec)
            assert AnalysisOptions.from_spec(opts.to_spec()) == opts

    def test_plan_keys_parse(self):
        opts = AnalysisOptions.from_spec("plan=on,plan_cache=/tmp/plans.pkl")
        assert opts.plan is True
        assert opts.plan_cache == "/tmp/plans.pkl"
        assert AnalysisOptions.from_spec("plan=off").plan is False

    def test_empty_spec_is_all_defaults(self):
        assert AnalysisOptions.from_spec("") == AnalysisOptions()
        assert AnalysisOptions().to_spec() == ""

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            AnalysisOptions.from_spec("turbo=on")

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            AnalysisOptions.from_spec("metrics")


class TestValidation:
    def test_unknown_engine(self):
        # the LCG engine is serial only; its knob is gone from both the
        # spec grammar and the dataclass
        for mode in ("serial", "parallel"):
            with pytest.raises(ValueError, match="unknown option 'engine'"):
                AnalysisOptions.from_spec(f"engine={mode}")
        with pytest.raises(TypeError, match="engine"):
            AnalysisOptions(engine="serial")

    def test_unknown_fast_path(self):
        with pytest.raises(ValueError, match="unknown dsm_fast_path"):
            AnalysisOptions(dsm_fast_path="hyper")
        # the affine-rectangular "legacy" tier was removed
        with pytest.raises(ValueError, match="unknown dsm_fast_path"):
            AnalysisOptions.from_spec("fast_path=legacy")

    def test_bad_workers(self):
        # the pool-width knob went with the parallel engine
        for key in ("workers", "parallel_workers"):
            with pytest.raises(ValueError, match=f"unknown option '{key}'"):
                AnalysisOptions.from_spec(f"{key}=2")
        with pytest.raises(TypeError, match="parallel_workers"):
            AnalysisOptions(parallel_workers=2)

    def test_bad_cache_object(self):
        with pytest.raises(ValueError, match="analysis_cache"):
            AnalysisOptions(analysis_cache=3.14)

    def test_cache_instance_accepted(self):
        from repro.locality.engine import AnalysisCache

        cache = AnalysisCache()
        assert AnalysisOptions(analysis_cache=cache).analysis_cache is cache

    def test_bad_plan_cache_object(self):
        with pytest.raises(ValueError, match="plan_cache"):
            AnalysisOptions(plan_cache=3.14)

    def test_plan_cache_instance_accepted(self):
        from repro.plan import PlanCache

        bundle = PlanCache()
        assert AnalysisOptions(plan_cache=bundle).plan_cache is bundle

class TestKnobThreading:
    """Each option observably reaches its subsystem, per-call."""

    def test_fast_path_off_forces_interpretation(self):
        program, env = _small_program()
        clear_caches()
        result = analyze(
            program,
            env=env,
            H=4,
            options=AnalysisOptions(dsm_fast_path="off", metrics=True),
        )
        c = result.metrics["counters"]
        assert c.get("dsm.fast_path.interp", 0) > 0
        assert c.get("dsm.fast_path.wide", 0) == 0

    def test_fast_path_wide_avoids_interpretation(self):
        program, env = _small_program()
        clear_caches()
        result = analyze(
            program,
            env=env,
            H=4,
            options=AnalysisOptions(dsm_fast_path="wide", metrics=True),
        )
        c = result.metrics["counters"]
        assert c.get("dsm.fast_path.wide", 0) > 0
        assert c.get("dsm.fast_path.interp", 0) == 0

    def test_fast_path_symbolic_counts_closed_form(self):
        program, env = _small_program()
        clear_caches()
        result = analyze(
            program,
            env=env,
            H=4,
            options=AnalysisOptions(dsm_fast_path="symbolic", metrics=True),
        )
        c = result.metrics["counters"]
        assert c.get("dsm.fast_path.symbolic", 0) > 0
        assert c.get("dsm.fast_path.interp", 0) == 0
        # the closed-form tier's counts agree with the wide tier's
        from repro.dsm import execute_static

        sym = execute_static(program, env, 4, fast_path="symbolic")
        wide = execute_static(program, env, 4, fast_path="wide")
        for ps, pw in zip(sym.phases, wide.phases):
            assert list(ps.local) == list(pw.local)
            assert list(ps.remote) == list(pw.remote)

    def test_fast_path_symbolic_spec_round_trip(self):
        opts = AnalysisOptions.from_spec("fast_path=symbolic")
        assert opts.dsm_fast_path == "symbolic"
        assert AnalysisOptions.from_spec(opts.to_spec()) == opts

    def test_refutation_off_records_no_refute_counters(self):
        from repro.codes import ALL_CODES

        builder, env, back = ALL_CODES["tfft2"]
        clear_caches()
        result = analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options=AnalysisOptions(refutation=False, metrics=True),
        )
        c = result.metrics["counters"]
        assert not any(k.startswith("refute.") for k in c)
        assert c.get("prover.disproved", 0) == 0

    def test_refutation_override_does_not_leak(self):
        from repro.codes import ALL_CODES

        builder, env, back = ALL_CODES["tfft2"]
        clear_caches()
        analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options=AnalysisOptions(refutation=False),
        )
        clear_caches()
        result = analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options=AnalysisOptions(metrics=True),
        )
        # the built-in default (refutation on) is back in force
        assert result.metrics["counters"].get("refute.refuted", 0) > 0

    def test_cache_path_round_trips(self, tmp_path):
        from repro.codes import ALL_CODES
        from repro.locality.engine import AnalysisCache

        builder, env, back = ALL_CODES["tfft2"]
        path = tmp_path / "lcg.pkl"
        clear_caches()
        analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options=AnalysisOptions(analysis_cache=str(path)),
        )
        assert path.exists()
        clear_caches()
        result = analyze(
            builder(),
            env=env,
            H=4,
            back_edges=back,
            options=AnalysisOptions(analysis_cache=str(path), metrics=True),
        )
        c = result.metrics["counters"]
        assert c.get("analysis_cache.edge_hits", 0) > 0
        assert c.get("analysis_cache.edge_misses", 0) == 0

    def test_options_accepts_spec_string(self):
        program, env = _small_program()
        clear_caches()
        result = analyze(
            program, env=env, H=4, options="refutation=on,metrics=on"
        )
        assert result.metrics is not None

class TestConfigurationSurface:
    """AnalysisOptions is the only public configuration surface (PR 8)."""

    def test_set_shims_are_gone(self):
        import repro.dsm
        import repro.locality
        import repro.symbolic

        for module, name in [
            (repro.locality, "set_engine"),
            (repro.locality, "set_analysis_cache"),
            (repro.symbolic, "set_refutation"),
            (repro.dsm, "set_fast_path"),
        ]:
            assert not hasattr(module, name)
            assert name not in module.__all__

    def test_executor_rejects_unknown_tier(self):
        from repro.dsm import execute_static

        program, env = _small_program()
        for tier in ("turbo", "legacy"):
            with pytest.raises(ValueError, match="unknown fast-path"):
                execute_static(program, env, 4, fast_path=tier)

    def test_option_none_means_wide_tier(self):
        program, env = _small_program()
        clear_caches()
        result = analyze(
            program, env=env, H=4, options=AnalysisOptions(metrics=True)
        )
        c = result.metrics["counters"]
        assert c.get("dsm.fast_path.wide", 0) > 0
        assert c.get("dsm.fast_path.interp", 0) == 0
        assert c.get("dsm.fast_path.symbolic", 0) == 0


from hypothesis import given, settings
from hypothesis import strategies as st

# a cache *path* is any value string that the grammar does not read as an
# on/off token; `,`/`=`/`\` are backslash-escaped by to_spec so they
# round-trip, but surrounding whitespace is stripped by the parser and
# cannot
_PATH_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789/._-,=\\"
)
_BOOL_TOKENS = ("on", "true", "yes", "1", "off", "false", "no", "0")
_paths = st.text(
    alphabet=_PATH_ALPHABET, min_size=1, max_size=40
).filter(lambda s: s.lower() not in _BOOL_TOKENS)


class TestSpecRoundTripProperty:
    """from_spec(to_spec(opts)) is the identity over the whole field space."""

    @given(
        cache=st.one_of(st.none(), st.booleans(), _paths),
        refutation=st.sampled_from([None, True, False]),
        fast_path=st.sampled_from([None, "symbolic", "wide", "off"]),
        trace=st.booleans(),
        metrics=st.booleans(),
    )
    @settings(max_examples=300)
    def test_identity(
        self, cache, refutation, fast_path, trace, metrics
    ):
        opts = AnalysisOptions(
            analysis_cache=cache,
            refutation=refutation,
            dsm_fast_path=fast_path,
            trace=trace,
            metrics=metrics,
        )
        assert AnalysisOptions.from_spec(opts.to_spec()) == opts

    def test_pathlike_cache_round_trips_to_its_string(self, tmp_path):
        # a PathLike cache serializes as its string form; the round trip
        # lands on the equivalent str path (PathLike is not preserved)
        target = tmp_path / "warm.pkl"
        opts = AnalysisOptions(analysis_cache=target)
        back = AnalysisOptions.from_spec(opts.to_spec())
        assert back.analysis_cache == str(target)
        assert back == AnalysisOptions(analysis_cache=str(target))


class TestSpecEscaping:
    """Values holding the grammar's own separators survive the spec."""

    def test_comma_in_cache_path(self):
        opts = AnalysisOptions(analysis_cache="/tmp/warm,start.pkl")
        spec = opts.to_spec()
        assert "\\," in spec
        assert AnalysisOptions.from_spec(spec) == opts

    def test_equals_in_cache_path(self):
        opts = AnalysisOptions(analysis_cache="/tmp/run=7/lcg.pkl")
        assert AnalysisOptions.from_spec(opts.to_spec()) == opts

    def test_backslash_in_cache_path(self):
        opts = AnalysisOptions(analysis_cache="C:\\caches\\lcg.pkl")
        assert AnalysisOptions.from_spec(opts.to_spec()) == opts

    def test_escaped_value_parses_directly(self):
        opts = AnalysisOptions.from_spec(
            "cache=/tmp/a\\,b\\=c.pkl,fast_path=wide"
        )
        assert opts.analysis_cache == "/tmp/a,b=c.pkl"
        assert opts.dsm_fast_path == "wide"

    def test_unescaped_comma_still_separates(self):
        opts = AnalysisOptions.from_spec("fast_path=wide,metrics=on")
        assert opts.dsm_fast_path == "wide" and opts.metrics is True


class TestFromSpecs:
    """Each repeated --opt is one spec; later flags win per key."""

    def test_one_spec_per_flag_needs_no_escaping_across_flags(self):
        opts = AnalysisOptions.from_specs(
            ["fast_path=symbolic", "cache=/tmp/warm\\,start.pkl"]
        )
        assert opts.dsm_fast_path == "symbolic"
        assert opts.analysis_cache == "/tmp/warm,start.pkl"

    def test_later_specs_win(self):
        opts = AnalysisOptions.from_specs(["fast_path=wide", "fast_path=off"])
        assert opts.dsm_fast_path == "off"

    def test_empty_sequence_is_defaults(self):
        assert AnalysisOptions.from_specs([]) == AnalysisOptions()

    def test_multi_key_specs_still_supported(self):
        opts = AnalysisOptions.from_specs(
            ["fast_path=wide,metrics=on", "refutation=off"]
        )
        assert opts.dsm_fast_path == "wide"
        assert opts.metrics is True
        assert opts.refutation is False
