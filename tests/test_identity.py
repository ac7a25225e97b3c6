"""The verdict logic of scripts/identity.py, on small directories: which
files it calls same, DIFF, MISSING or expected, and when it fails; and the
pairing of its worker reruns with its battery's commands. No battery is run."""

import importlib
import json
import os

import pytest

from pathscope import cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.fixture(scope="module")
def identity():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(SCRIPTS)  # identity.py imports run_desk_experiments
        return importlib.import_module("identity")


def tree(top, files):
    for rel, data in files.items():
        path = top / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(top)


def sidecar(out):
    return json.dumps({"command": "eval", "model": "/m/model.npsc", "out": out}).encode()


def test_compare_statuses(identity, tmp_path, capsys):
    a = tree(tmp_path / "a", {"same.csv": b"1", "diff.csv": b"1", "declared.csv": b"1",
                              "gone.csv": b"1"})
    b = tree(tmp_path / "b", {"same.csv": b"1", "diff.csv": b"2", "declared.csv": b"2",
                              "new/new.csv": b"1"})
    results = identity.compare(a, b, "", ["declared.*"])
    assert results == [("declared.csv", "expected"), ("diff.csv", "DIFF"),
                       ("gone.csv", "MISSING"), ("new/new.csv", "MISSING"),
                       ("same.csv", "same")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["expected", "declared.csv"]
    assert lines[2].split()[2:] == [identity.digest(os.path.join(a, "gone.csv")), "-"]
    assert identity.verdict(results, ["declared.*"]) == 1
    assert "3 undeclared difference(s), 0 stale" in capsys.readouterr().out


def test_sidecar_differing_only_in_a_path_is_a_diff(identity, tmp_path):
    a = tree(tmp_path / "a", {"eval/eval_config.json": sidecar("/x/eval")})
    b = tree(tmp_path / "b", {"eval/eval_config.json": sidecar("/y/eval")})
    assert identity.compare(a, b, "", []) == [("eval/eval_config.json", "DIFF")]


def test_worker_comparison_skips_sidecars(identity, tmp_path, capsys):
    a = tree(tmp_path / "a", {"sweep/sweep.csv": b"1", "sweep/replace-sweep_config.json": b"1"})
    b = tree(tmp_path / "b", {"sweep/sweep.csv": b"1", "sweep/replace-sweep_config.json": b"2"})
    results = identity.compare(a, b, "workers", [], "*_config.json")
    assert results == [("workers/sweep/sweep.csv", "same")]
    assert "_config.json" not in capsys.readouterr().out
    assert identity.verdict(results, []) == 0


def test_stale_declaration_fails(identity, tmp_path, capsys):
    a = tree(tmp_path / "a", {"r.csv": b"1", "s.csv": b"1"})
    b = tree(tmp_path / "b", {"r.csv": b"2", "s.csv": b"1"})
    results = identity.compare(a, b, "", ["r.csv", "s.csv"])
    assert results == [("r.csv", "expected"), ("s.csv", "same")]
    capsys.readouterr()
    assert identity.verdict(results, ["r.csv", "s.csv"]) == 1
    out = capsys.readouterr().out
    assert "STALE    --expect-diff s.csv: matches no differing file" in out
    assert "--expect-diff r.csv" not in out
    assert identity.verdict(results, ["r.csv"]) == 0
    assert "identical apart from 1 declared difference(s)" in capsys.readouterr().out


def test_worker_reruns_pair_with_battery_entries(identity):
    # every battery analysis whose command takes --workers is rerun, into the
    # battery's layout, with the battery's argv apart from --workers, and never
    # at one worker
    out, shares = "/out", "/workers"
    written = {}  # each directory the battery writes -> the argv that writes it
    for name, args in identity.BATTERY.items():
        argv = identity.command(args, out, os.path.join(out, name))
        if argv[0] == "scripts/run_desk_experiments.py":
            # the script runs each analysis in process, on its train's model
            model = os.path.join(out, name, "train", "model.npsc")
            for sub, a in identity.analyses("--quick" in argv).items():
                dest = os.path.join(out, name, sub)
                written[dest] = [*identity.CLI, *a, "--model", model, "--out", dest]
        else:
            written[os.path.join(out, name)] = argv
    n = len(identity.CLI)
    takes_workers = {c for c, command in cli._COMMANDS.items() if "workers" in command.defaults}
    parallel = {dest: argv for dest, argv in written.items()
                if argv[:n] == identity.CLI and argv[n] in takes_workers}

    reruns = {}
    for name, args in identity.PARALLEL.items():
        argv = identity.command(args, out, os.path.join(shares, name))
        i = argv.index("--workers")
        assert int(argv[i + 1]) > 1
        assert argv[-1] == os.path.join(shares, name)
        reruns[os.path.join(out, name)] = [*argv[:i], *argv[i + 2:-1], os.path.join(out, name)]
    assert reruns == parallel
    assert {"/out/desk/sweep", "/out/mean/tau_mean", "/out/sweep_2img"} <= set(reruns)
    # one rerun has more workers than images, so a forked share holds one image
    sweep = identity.PARALLEL["sweep_2img"]
    assert int(sweep[sweep.index("--workers") + 1]) > int(sweep[sweep.index("--sample") + 1])
