import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubic27
from cubic27 import monodromy
from cubic27.cli import main
from cubic27.perm import format_cycles, parse_cycles


# sha256 of the structured stdout of the commands that take no seed; these
# reports must stay byte-stable
STRUCTURED_DIGESTS = {
    "lines": "04cb33b91b802ade44a8112a0c6dabb6237d157e7b3855645c235016c4f4cbc7",
    "group": "d678586a57fe8a99e0cbcedc72bcf17a75cca5eb6cef1958f1377e2fa19b6bee",
    "iso": "59f3bffe98e0feb6469a10c25a6e972bf08842bda5d6599b75dacb410ed2ac60",
    "symcheck": "558b85fba97dff1594be8aea2edc6942e0d9f5fa7581acc20cbc7be6dba99e2d",
}

# sha256 and exit code of --seed S --format structured monodromy --family
# symmetric --loops 8: tracker changes must keep these reports byte-identical
SYMMETRIC_LOOPS_8 = {
    1: ("6c7b63efa8f994d169d7f1a6f6f7a320665836779210cf030f10f031bf979b48", 1),
    100004: ("473470bfd7f8aec2971fb95e7924bff9a3c6a25a379cc5347192c53d75aa774d", 1),
    200007: ("17fe2fb1dd4c1104c5b12ed50194d865b9c22f26589c72e1a913f236c19f134a", 1),
}


# sha256 of --seed 1 --format structured verify-all --skip-monodromy: the
# nine exact claims must stay byte-identical
VERIFY_ALL_EXACT_SEED_1 = "1b2d309a576082bf1d013765b938e84350e73492a13aad3d18ffb959437bfb49"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLines:
    def test_structured_output_round_trips(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "lines")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert len(doc["catalog"]) == 27
        assert doc["strongly_regular"] == [27, 10, 1, 5]
        assert len(doc["incidence_matrix"]) == 27
        # cycle strings in the dump parse back to permutations
        for cycles in doc["coordinate_action"].values():
            assert format_cycles(parse_cycles(cycles)) == cycles
        orbits = doc["s4_orbits"]
        assert orbits == [list(range(1, 13)), list(range(13, 25)), [25, 26, 27]]

    @pytest.mark.parametrize("command", list(STRUCTURED_DIGESTS))
    def test_deterministic_bytes(self, capsys, command):
        code, out = run_cli(capsys, "--format", "structured", command)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_DIGESTS[command]


class TestSymcheck:
    def test_exit_zero_and_all_pass(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "symcheck")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "tricuspidal_equivalence",
            "cayley_four_nodes",
            "tritangent_vanishing",
            "normalizer_matrix_family",
        }


class TestMonodromyCommand:
    def test_zero_loops_inconclusive_exit_1(self, capsys):
        code, out = run_cli(
            capsys, "monodromy", "--family", "symmetric", "--loops", "0"
        )
        assert code == 1
        assert "INCONCLUSIVE: budget exhausted" in out

    def test_structured_deterministic(self, capsys):
        # one loop: a random triangle, the cheapest part of the schedule
        args = (
            "--format", "structured", "--seed", "3",
            "monodromy", "--family", "symmetric", "--loops", "1",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == 1
        assert doc["family"] == "symmetric"
        assert doc["seed"] == 3
        assert "strategy" not in doc
        assert sorted(doc["config"]) == [
            "match_margin", "max_newton_iters", "newton_tol", "step_init", "step_max",
        ]

    @pytest.mark.parametrize("seed", list(SYMMETRIC_LOOPS_8))
    def test_symmetric_eight_loops_bytes(self, capsys, seed):
        code, out = run_cli(
            capsys, "--seed", str(seed), "--format", "structured",
            "monodromy", "--family", "symmetric", "--loops", "8",
        )
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == SYMMETRIC_LOOPS_8[seed]


class TestEnvironment:
    def test_seed_env_var_is_ignored(self, capsys, monkeypatch):
        # the seed comes from --seed alone; a stray variable breaks nothing
        monkeypatch.setenv("CUBIC27_SEED", "abc")
        code, out = run_cli(capsys, "--format", "structured", "lines")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_DIGESTS["lines"]
        code, out = run_cli(
            capsys, "--format", "structured", "monodromy", "--family", "symmetric", "--loops", "0"
        )
        assert code == 1
        assert json.loads(out)["seed"] == 1


class TestClosedReader:
    # the reader's end of the pipe is closed before the command starts, so
    # the first write fails; "lines" overflows the stdout buffer while it
    # prints, the monodromy report fits in it and is flushed at the end
    @pytest.mark.parametrize("command", [
        ["lines"],
        ["monodromy", "--family", "symmetric", "--loops", "0"],
    ])
    def test_no_traceback(self, command):
        env = {**os.environ, "PYTHONPATH": str(Path(cubic27.__file__).resolve().parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cubic27.cli", *command],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""  # no traceback, no "Exception ignored"
        assert proc.returncode == 1


class TestBadFlags:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", "--family", "cubic"])
        assert exc.value.code == 2

    def test_missing_required_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["monodromy", "--family", "symmetric", "--loops", "-1"],
    ])
    def test_negative_loop_budget_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["lines"],
        ["monodromy", "--family", "symmetric", "--loops", "1"],
    ])
    def test_negative_seed_exits_2(self, command):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", *command])
        assert exc.value.code == 2

    # verify-all runs the monodromy claims at fixed budgets of 40 and 300 loops
    @pytest.mark.parametrize("flag", ["--sym-loops", "--full-loops"])
    def test_removed_verify_all_budgets_exit_2(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", flag, "10"])
        assert exc.value.code == 2

    # one loop schedule is left, so --strategy is gone
    @pytest.mark.parametrize("strategy", ["auto", "circles", "mixed", "random"])
    def test_removed_strategies_exit_2(self, strategy):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", "--family", "symmetric", "--strategy", strategy])
        assert exc.value.code == 2


class TestGroup:
    def test_group_claims_pass(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "group")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["composition_convention"] == "compose(p, q) applies q first"
        ids = {c["id"] for c in doc["claims"]}
        assert "subgroup-ladder" in ids and "preferred-double-six" in ids
        assert "seed" not in doc


class TestVerifyAll:
    def test_exact_claims_only(self, capsys):
        code, out = run_cli(
            capsys, "--format", "structured", "verify-all", "--skip-monodromy"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        ids = {c["id"] for c in doc["claims"]}
        assert "weyl-reconstruction" in ids
        assert "exceptional-isomorphism" in ids
        assert "symmetric-monodromy" not in ids  # skipped

    def test_exact_claims_bytes(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "--format", "structured", "verify-all", "--skip-monodromy"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_EXACT_SEED_1

    def test_exact_claims_do_not_depend_on_the_seed(self, capsys):
        docs = []
        for seed in ("1", "2"):
            _, out = run_cli(
                capsys, "--format", "structured", "--seed", seed,
                "verify-all", "--skip-monodromy",
            )
            doc = json.loads(out)
            assert doc.pop("seed") == int(seed)
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_exact_claims_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use (11-18 ms); the exact
        # claims count distinct values by sorting or bincount instead
        assert cold_run_imports(["verify-all", "--skip-monodromy"], ["numpy.ma"]) == (0, [])


class TestIso:
    def test_iso_passes(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "iso")
        assert code == 0
        doc = json.loads(out)
        assert doc["claim"]["pass"] is True
        assert doc["claim"]["details"]["projective_image_order"] == 51840
        assert doc["claim"]["details"]["pre_projectivization_order"] == 103680
        # canonical representatives: first nonzero entry equals 1
        for name, matrix in doc["images"].items():
            flat = [x for row in matrix for x in row]
            assert next(x for x in flat if x) == 1


def cold_run_imports(argv, modules):
    """Run the CLI in a fresh interpreter; its exit code and which of
    ``modules`` it left in ``sys.modules``."""
    script = (
        "import contextlib, io, json, sys\n"
        "from cubic27.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cubic27.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, code", [
    (["--seed", "1", "--format", "structured", "monodromy", "--family", "symmetric", "--loops", "8"], 1),
    (["verify-all", "--skip-monodromy"], 0),
], ids=["monodromy", "verify-all"])
def test_runs_leave_numpy_random_unimported(argv, code):
    # loops draw from Python's random: numpy.random would cost 10-16 ms and
    # about 5 MiB, most of it secrets -> hmac -> OpenSSL's _hashlib
    assert cold_run_imports(argv, ["numpy.random", "secrets", "_hashlib"]) == (code, [])
