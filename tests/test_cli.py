"""The command-line driver."""

import pytest

from repro.cli import main


def test_bundled_code(capsys):
    rc = main(["--code", "jacobi", "--env", "N=256", "--H", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Locality-Communication Graph" in out
    assert "CYCLIC(p) chunks" in out
    assert "Measured execution" in out


def test_no_execute(capsys):
    rc = main(["--code", "adi", "--env", "M=16,N=16", "--no-execute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Measured execution" not in out
    assert "Constraints" in out


def test_dot_output(capsys):
    rc = main(["--code", "adi", "--env", "M=16,N=16", "--dot", "A"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "LCG_A"')


def test_source_file(tmp_path, capsys):
    src = tmp_path / "prog.dsl"
    src.write_text(
        """
program demo
  param N
  array A(N)
  phase F
    doall i = 0, N - 1
      A(i) = 1
    end doall
  end phase
end program
"""
    )
    rc = main([str(src), "--env", "N=64", "--H", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "demo" in out


def test_unknown_code():
    with pytest.raises(SystemExit):
        main(["--code", "nope", "--env", "N=4"])


def test_bundled_default_env_used(capsys):
    # bundled codes carry a reference binding, so --env may be omitted
    rc = main(["--code", "jacobi", "--no-execute"])
    assert rc == 0


def test_missing_env_for_source(tmp_path):
    src = tmp_path / "p.dsl"
    src.write_text(
        "program p\n param N\n array A(N)\n phase F\n"
        " doall i = 0, N - 1\n  A(i) = 1\n end doall\nend phase\n"
        "end program\n"
    )
    with pytest.raises(SystemExit):
        main([str(src)])


def test_bad_env_entry():
    with pytest.raises(SystemExit):
        main(["--code", "jacobi", "--env", "N"])


def test_missing_source():
    with pytest.raises(SystemExit):
        main(["--env", "N=4"])


def test_opt_spec_and_metrics_table(capsys):
    rc = main(
        ["--code", "jacobi", "--env", "N=256", "--H", "4",
         "--opt", "fast_path=wide,refutation=off", "--metrics"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Metrics" in out
    assert "analysis_cache.edge_lookups" in out
    assert "dsm.local" in out
    assert "refute." not in out  # refutation=off reached the prover


def test_opt_flag_repeats_and_merges(capsys):
    rc = main(
        ["--code", "jacobi", "--env", "N=256", "--H", "4",
         "--opt", "fast_path=wide", "--opt", "metrics=on"]
    )
    assert rc == 0
    assert "Metrics" in capsys.readouterr().out


def test_bad_opt_spec():
    with pytest.raises(SystemExit):
        main(["--code", "jacobi", "--opt", "turbo=on"])


def test_trace_writes_json_and_renders_tree(tmp_path, capsys):
    import json

    from repro.perf.bench import clear_caches

    clear_caches()  # cold edges, so the trace contains computed edge spans
    out_file = tmp_path / "trace.json"
    rc = main(
        ["--code", "jacobi", "--env", "N=256", "--H", "4",
         "--trace", str(out_file)]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["version"] == 1

    def flatten(nodes):
        for node in nodes:
            yield node["name"]
            yield from flatten(node["children"])

    names = list(flatten(doc["spans"]))
    assert "parse" in names and "analyze" in names
    assert any(n.startswith("edge:") for n in names)
    err = capsys.readouterr().err
    assert "analyze" in err  # rendered tree goes to stderr


def test_removed_aliases_are_rejected(capsys):
    """The pre-1.1 alias flags are gone; --opt is the only surface."""
    for flag in (["--parallel-lcg"], ["--analysis-cache", "lcg.pkl"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["--code", "jacobi", "--env", "N=256", "--H", "4", *flag])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("spec", ["engine=parallel", "workers=2"])
def test_removed_opt_keys_exit_with_message(spec):
    """The parallel engine's keys fail loudly, never with a traceback."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--code", "jacobi", "--opt", spec],
        capture_output=True, text=True, timeout=120, env=env,
    )
    key = spec.split("=")[0]
    assert proc.returncode != 0
    assert f"unknown option {key!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_opt_covers_removed_aliases(tmp_path):
    """The --opt spelling the cache alias mapped to still works."""
    cache = tmp_path / "lcg.pkl"
    rc = main(
        ["--code", "jacobi", "--env", "N=256", "--H", "4",
         "--opt", f"cache={cache}"]
    )
    assert rc == 0
    assert cache.exists()


def test_json_output_matches_service_protocol(capsys):
    """--json emits exactly the service response document."""
    import json

    from repro import analyze
    from repro.codes import ALL_CODES
    from repro.service.protocol import response_document

    rc = main(["--code", "jacobi", "--H", "4", "--json"])
    assert rc == 0
    emitted = json.loads(capsys.readouterr().out)

    builder, env, back = ALL_CODES["jacobi"]
    result = analyze(builder(), env=env, H=4, back_edges=back)
    expected = response_document(result, env, 4)
    # both sides went through JSON once so tuples/lists compare equal
    assert emitted == json.loads(json.dumps(expected))


def test_json_output_no_execute(capsys):
    import json

    rc = main(["--code", "adi", "--env", "M=16,N=16", "--no-execute",
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] is None
    assert doc["program"] == "adi"
    assert doc["plan"]["phase_chunks"]
