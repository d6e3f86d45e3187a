import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chainphase
from chainphase import boundary, cli, search
from chainphase.cli import main
from chainphase.fileio import data_text
from chainphase.simplicial import Phase

SRC = Path(chainphase.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestVerifyTable:
    def test_fast_rows_pass(self, capsys):
        code, out, _ = run(capsys, "verify-table", "--rows", "1,2")
        assert code == 0
        assert "MISMATCH" not in out
        assert "row 2 pontryagin9 N=3" in out

    def test_row3_mismatch_reported(self, capsys, monkeypatch):
        # Against a wrong tabulated value (2/3 where the 7-dimensional
        # row measures 1/3) the command must fail loudly and name the
        # offending row.
        monkeypatch.setitem(cli.TABLE_ROWS, 3,
                            ("p1b3", (3,), lambda N: Phase(2, 3)))
        code, doc, _ = run_json(capsys, "verify-table", "--rows", "3")
        assert code == 1
        assert doc["ok"] is False
        (row,) = doc["rows"]
        assert row["row"] == 3
        assert row["measured"] == {"num": 1, "den": 3}
        assert row["expected"] == {"num": 2, "den": 3}

    def test_bad_rows_argument(self, capsys):
        code, _, err = run(capsys, "verify-table", "--rows", "1,9")
        assert code == 2
        assert "rows" in err

    @pytest.mark.parametrize("rows", ["x", ",1"])
    def test_malformed_rows_are_bad_input(self, capsys, rows):
        code, _, err = run(capsys, "verify-table", "--rows", rows)
        assert code == 2
        assert f"got {rows!r}" in err

    def test_repeated_row_is_reported_once(self, capsys):
        code, doc, _ = run_json(capsys, "verify-table", "--rows", "1,1")
        assert code == 0
        assert [(r["row"], r["N"]) for r in doc["rows"]] == [
            (1, 2), (1, 3), (1, 5)]

    def test_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify-table", "--rows", "1", "--json")
        _, out2, _ = run(capsys, "verify-table", "--rows", "1", "--json")
        assert out1 == out2


class TestSeeds:
    def test_flag_recorded(self, capsys):
        code, doc, _ = run_json(capsys, "--seed", "7", "verify-table",
                                "--rows", "1")
        assert code == 0 and doc["seed"] == 7

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINPHASE_SEED", "41")
        _, doc, _ = run_json(capsys, "verify-table", "--rows", "1")
        assert doc["seed"] == 41

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINPHASE_SEED", "41")
        _, doc, _ = run_json(capsys, "--seed", "3", "verify-table",
                             "--rows", "1")
        assert doc["seed"] == 3

    def test_garbage_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINPHASE_SEED", "pi")
        code, _, err = run(capsys, "verify-table", "--rows", "1")
        assert code == 2 and "CHAINPHASE_SEED" in err


class TestEval:
    def test_tjunction_semion(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "--action",
                                "particle-quad-even", "--N", "2",
                                "--process", "tjunction")
        assert code == 0
        assert doc["phase"] == {"num": 1, "den": 4}
        assert doc["steps"] == 6
        assert doc["cancellation_ok"]

    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_nonpositive_modulus_is_bad_input(self, capsys, N):
        code, out, err = run(capsys, "eval", "--action", "pontryagin9",
                             "--N", N)
        assert code == 2 and not out
        assert f"needs N > 0, got N={N}" in err

    def test_schema_keys(self, capsys):
        _, doc, _ = run_json(capsys, "eval", "--action", "cube3", "--N", "3")
        assert set(doc) == {"seed", "action", "N", "D", "steps", "phase",
                            "cancellation_ok"}

    def test_word_from_file(self, capsys, tmp_path):
        f = tmp_path / "word.txt"
        f.write_text("+ 0 1\n- 1 3\n+ 1 2\n- 0 1\n+ 1 3\n- 1 2\n")
        code, doc, _ = run_json(capsys, "eval", "--action", "particle-quad",
                                "--N", "3", "--process", str(f))
        assert code == 0 and doc["steps"] == 6

    def test_unknown_action(self, capsys):
        code, _, err = run(capsys, "eval", "--action", "bogus")
        assert code == 2 and "unknown action" in err

    def test_inconsistent_dimension(self, capsys):
        # An action fixes its spacetime dimension; eval takes no --D.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--action", "cube3", "--N", "2", "--D", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --D 9" in capsys.readouterr().err

    def test_malformed_word_file(self, capsys, tmp_path):
        f = tmp_path / "word.txt"
        f.write_text("* 0 1\n")
        code, _, err = run(capsys, "eval", "--action", "cube3",
                           "--process", str(f))
        assert code == 2 and "malformed" in err

    def test_missing_word_file(self, capsys):
        code, _, err = run(capsys, "eval", "--action", "cube3",
                           "--process", "/nonexistent/word.txt")
        assert code == 2

    def test_open_word_rejected(self, capsys, tmp_path):
        f = tmp_path / "word.txt"
        f.write_text("+ 0 1\n")
        code, _, err = run(capsys, "eval", "--action", "particle-quad",
                           "--N", "3", "--process", str(f))
        assert code == 2


    @pytest.mark.parametrize("doc,field", [
        ({"degree": 1, "values": {"0,1": 1.5}}, "values"),
        ({"degree": 1, "values": {"0,1": "1"}}, "values"),
        ({"degree": 1, "values": {"0,1": True}}, "values"),
        ({"degree": 1, "modulus": 3.5, "values": {"0,1": 1}}, "modulus"),
        ({"degree": "1", "values": {"0,1": 1}}, "degree"),
    ])
    def test_initial_needs_json_integers(self, capsys, tmp_path, doc,
                                         field):
        # Each document used to be truncated or converted to a valid
        # state, and a phase was printed for a state nobody gave.
        f = tmp_path / "state.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--action", "particle-quad",
                             "--N", "3", "--process", "tjunction",
                             "--initial", str(f))
        assert code == 2 and not out
        assert "bad initial state file" in err and field in err
        assert "JSON integer" in err

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_initial_with_a_bad_key_is_bad_input(self, capsys, tmp_path,
                                                 command):
        field = "values" if command == "eval" else "terms"
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"degree": 1, field: {"0,1_0": 1}}))
        extra = ["--action", "particle-quad", "--N", "3"] \
            if command == "eval" else []
        code, out, err = run(capsys, command, *extra, "--process",
                             "tjunction", "--initial", str(f))
        assert code == 2 and not out
        assert "bad initial state file" in err and "'0,1_0'" in err

    def test_initial_state_file(self, capsys, tmp_path):
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"degree": 1, "modulus": 3,
                                 "values": {"0,1": 1, "1,2": 2}}))
        code, doc, _ = run_json(capsys, "eval", "--action", "particle-quad",
                                "--N", "3", "--process", "tjunction",
                                "--initial", str(f))
        assert code == 0 and doc["phase"] == {"num": 1, "den": 3}


class TestPhaseStats:
    # ``--stats`` adds lines to stderr and changes nothing on stdout.
    ROW = r"(\d+) hops, set-up \d+\.\d{3} s, evaluate \d+\.\d{3} s"

    @pytest.mark.parametrize("argv,rows,built", [
        (("verify-table",), [
            "cube3 N=2", "cube3 N=3", "cube3 N=5", "pontryagin9 N=3",
            "p1b3 N=3", "p1b4 N=3", "p1b5 N=3", "cs-b3 N=2", "sq4-b5 N=2"],
         4),
        (("eval", "--process", "tjunction", "--action", "particle-quad",
          "--N", "5"), ["particle-quad N=5"], 1),
    ], ids=["verify-table", "eval"])
    def test_stats_go_to_stderr_only(self, capsys, monkeypatch, argv, rows,
                                     built):
        # A fresh geometry cache, so the command builds every geometry.
        monkeypatch.setattr(boundary, "_HOPS", {})
        argv += ("--json",)
        code, plain, err = run(capsys, *argv)
        assert code == 0 and not err
        monkeypatch.setattr(boundary, "_HOPS", {})
        code, out, err = run(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        stats = dict(line[len("stats: "):].split(": ", 1)
                     for line in err.splitlines())
        assert list(stats) == rows + ["total", "hop geometries built"]
        hops = [int(re.fullmatch(self.ROW, stats[row]).group(1))
                for row in rows + ["total"]]
        steps = 56 if argv[0] == "verify-table" else 6
        assert hops == [steps] * len(rows) + [steps * len(rows)]
        assert stats["hop geometries built"] == str(built)


class TestTrace:
    def test_golden_match(self, capsys):
        code, out, _ = run(capsys, "trace", "--process", "mu56",
                           "--diff-golden", "builtin")
        assert code == 0
        assert "exact match" in out

    def test_broken_golden_detected(self, capsys, tmp_path):
        text = data_text("mu56_trace.txt")
        lines = [ln for ln in text.splitlines() if ln.strip()
                 and not ln.lstrip().startswith("#")]
        lines[10] = lines[10].replace("+", "-")
        f = tmp_path / "golden.txt"
        f.write_text("\n".join(lines) + "\n")
        code, doc, _ = run_json(capsys, "trace", "--process", "mu56",
                                "--diff-golden", str(f))
        assert code == 1
        assert doc["ok"] is False and doc["golden_diff"]

    def test_states_listed(self, capsys):
        code, doc, _ = run_json(capsys, "trace", "--process", "tjunction")
        assert code == 0
        assert len(doc["states"]) == 7
        assert doc["states"][0] == [] and doc["states"][-1] == []

    def test_initial_of_wrong_degree_is_bad_input(self, capsys, tmp_path):
        f = tmp_path / "chain.json"
        f.write_text('{"degree": 2, "terms": {"0,1,2": 1}}')
        code, _, err = run(capsys, "trace", "--process", "tjunction",
                           "--initial", str(f))
        assert code == 2 and "does not move degree-2 states" in err


@pytest.mark.parametrize("command", ["trace", "check-cancel"])
def test_one_vertex_cell_is_bad_input(capsys, tmp_path, command):
    f = tmp_path / "word.txt"
    f.write_text("+ 0\n")
    code, out, err = run(capsys, command, "--process", str(f))
    assert code == 2 and not out
    assert "step 0 moves the one-vertex cell (0,)" in err


class TestCheckCancel:
    def test_mu56_over_z(self, capsys):
        code, out, _ = run(capsys, "check-cancel", "--process", "mu56",
                           "--coeff", "Z")
        assert code == 0 and "pass" in out

    def test_truncated_word_fails(self, capsys, tmp_path):
        from chainphase.process import MU56
        f = tmp_path / "word.txt"
        f.write_text("".join(
            ("+ " if s > 0 else "- ") + " ".join(map(str, c)) + "\n"
            for s, c in MU56[:-1]))
        code, doc, _ = run_json(capsys, "check-cancel", "--process", str(f),
                                "--coeff", "Z")
        assert code == 1
        assert doc["ok"] is False and doc["violations"]

    def test_bad_coefficients(self, capsys):
        code, _, err = run(capsys, "check-cancel", "--coeff", "Q")
        assert code == 2 and "coefficients" in err

    def test_mixed_degree_word_is_bad_input(self, capsys, tmp_path):
        f = tmp_path / "word.txt"
        f.write_text("+ 0 1\n+ 0 1 2\n")
        code, _, err = run(capsys, "check-cancel", "--process", str(f))
        assert code == 2
        assert "step 1 has dimension 2, but step 0 has dimension 1" in err


class TestSteenrod:
    def test_psi3_words(self, capsys):
        code, doc, _ = run_json(capsys, "steenrod", "--what", "psi3",
                                "--n", "2")
        assert code == 0
        assert doc["count"] == 3
        assert doc["words"] == ["12312", "12323", "13123"]

    def test_p1_term_count(self, capsys):
        _, doc, _ = run_json(capsys, "steenrod", "--what", "p1", "--q", "3")
        assert doc["count"] == 19

    def test_d3_term_counts(self, capsys):
        _, doc, _ = run_json(capsys, "steenrod", "--what", "d3",
                             "--n", "4", "--q", "4")
        assert doc["count"] == 177
        _, doc, _ = run_json(capsys, "steenrod", "--what", "d3",
                             "--n", "6", "--q", "5")
        assert doc["count"] == 1110

    @pytest.mark.parametrize("argv,message", [
        (("--what", "psi3", "--n", "-2"), "n >= 0"),
        (("--what", "d3", "--n", "-1"), "n >= 0"),
        (("--what", "p1", "--q", "1"), "degree >= 2"),
    ])
    def test_out_of_range_parameters_are_bad_input(self, capsys, argv,
                                                   message):
        code, out, err = run(capsys, "steenrod", *argv)
        assert code == 2
        assert message in err and not out


class TestSearch:
    def test_particle_classification(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--G", "Z2",
                                "--p", "0", "--d", "2")
        assert code == 0
        assert doc["invariant_factors"] == [4]
        assert doc["generators"] == 6 and doc["configurations"] == 8

    def test_emit_process_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "word.txt"
        code, doc, _ = run_json(capsys, "search", "--G", "Z2", "--p", "0",
                                "--d", "2", "--emit-process", str(out))
        assert code == 0 and doc["process_steps"] == 16
        code, doc, _ = run_json(capsys, "eval", "--action",
                                "particle-quad-even", "--N", "2",
                                "--process", str(out))
        assert code == 0
        assert doc["phase"] == {"num": 1, "den": 2}

    @pytest.mark.parametrize("model,factors,free,shape,steps,digest", [
        ((2, 0, 2), [4], 21, [1, 6], 16, "43e44cd1b71b19aa81c43fb6e7824bce"
         "34238be7c713d42602f5493d4d4a13f1"),
        ((3, 0, 2), [3], 48, [3, 6], 26, "7c9a45e2c79e73327cfe29232fe311d2"
         "bd20393ca99e7b1b0d49b005bc530a6c"),
        ((2, 0, 3), [2], 40, [2, 6], 16, "fae10e430a905b0f3bfa40d05757ab9f"
         "6c5cfc19c8f3667df4468e6d5703a371"),
        ((2, 1, 3), [2], 238, [3, 24], 46, "f3a3e1e9081e44044bbbb8187dafb7"
         "5e6ba72c61805b4bd6556f1206c6ada779"),
    ], ids=["Z2-p0-d2", "Z3-p0-d2", "Z2-p0-d3", "Z2-p1-d3"])
    def test_classification_is_pinned(self, capsys, tmp_path, model,
                                      factors, free, shape, steps, digest):
        # The order in which identity rows stream into the reducer, the
        # cosets it skips, its pivot tie rule (fewest holders, then the
        # last entry of the row) and which of two residual rows equal
        # up to sign it keeps decide the residual; the free rank is
        # |S||A| minus the rank.  The word lifts the all-even row of
        # least sum |coefficient| (ties to the least row id): on
        # (2, 0, 3) the rows sum to 24 and 12, on (2, 1, 3) to 192, 96
        # and 48, so those two lift their last row, in 16 and 46 steps
        # where the first row took 20 and 118.
        N, p, d = model
        out = tmp_path / "word.txt"
        code, doc, _ = run_json(capsys, "search", "--G", f"Z{N}", "--p",
                                str(p), "--d", str(d), "--emit-process",
                                str(out))
        assert code == 0
        assert doc["invariant_factors"] == factors
        assert doc["free_rank"] == free
        assert doc["residual_shape"] == shape
        assert doc["process_steps"] == steps
        text = out.read_text()
        assert text.count("\n") == steps
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_free_rank_in_text_and_json(self, capsys):
        # The Z4 particle model: 6 generators times 64 configurations,
        # less the rank 291 of its identity rows.
        argv = ("search", "--G", "Z4", "--p", "0", "--d", "2")
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and doc["free_rank"] == 93
        assert doc["invariant_factors"] == [8]
        code, text, _ = run(capsys, *argv)
        assert code == 0 and "free rank: 93\n" in text

    def test_stats_go_to_stderr_only(self, capsys):
        argv = ("search", "--G", "Z2", "--p", "0", "--d", "2", "--json")
        code, plain, err = run(capsys, *argv)
        assert code == 0 and not err
        code, out, err = run(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        stats = dict(line[len("stats: "):].split(": ", 1)
                     for line in err.splitlines())
        timings = {k: stats.pop(k) for k in ("walk", "reduce", "smith")}
        assert all(re.fullmatch(r"\d+\.\d{3} s", v)
                   for v in timings.values())
        assert stats == {
            "words walked": "39", "words skipped": "28",
            "translates reduced": "82", "translates to zero": "28",
            "translates onto a held residual row": "27",
            "pivots": "26", "residual shape": "1 x 6",
            "most nonzeros held": "218"}

    def test_bad_group(self, capsys):
        code, _, err = run(capsys, "search", "--G", "Q8", "--p", "0",
                           "--d", "2")
        assert code == 2 and "fusion group" in err

    def test_bad_dimensions(self, capsys):
        code, _, err = run(capsys, "search", "--G", "Z2", "--p", "2",
                           "--d", "2")
        assert code == 2

    @pytest.mark.parametrize("extra,message", [
        (("--depth", "1"), "depth >= 2"),
        (("--stretch-membrane", "--attempts", "-3"), "attempts must be"),
        (("--p", "-1"), "excitation dimension p must be >= 0, got -1"),
    ])
    def test_out_of_range_parameters_are_bad_input(self, capsys, extra,
                                                   message):
        code, out, err = run(capsys, "search", "--G", "Z2", "--p", "0",
                             "--d", "2", *extra)
        assert code == 2
        assert message in err and not out

    @pytest.mark.parametrize("extra,message", [
        (("--attempts", "5"),
         "--attempts applies only with --stretch-membrane"),
        (("--checkpoint", "CK"),
         "--checkpoint applies only with --stretch-membrane"),
        (("--stretch-membrane", "--emit-process", "WORD"),
         "--emit-process does not apply with --stretch-membrane"),
        (("--stretch-membrane", "--stats"),
         "--stats does not apply with --stretch-membrane"),
    ], ids=["attempts", "checkpoint", "emit-process", "stats"])
    def test_flag_outside_its_mode_is_bad_input(self, capsys, tmp_path,
                                                extra, message):
        # Outside its mode a flag would do nothing, so it is refused
        # before any work and no file is written.
        extra = [str(tmp_path / a) if a in ("CK", "WORD") else a
                 for a in extra]
        code, out, err = run(capsys, "search", "--G", "Z2", "--p", "0",
                             "--d", "2", *extra, "--json")
        assert code == 2 and not out
        assert message in err
        assert not list(tmp_path.iterdir())

    def test_integer_group_needs_stretch_mode(self, capsys):
        code, _, err = run(capsys, "search", "--G", "Z", "--p", "0",
                           "--d", "2")
        assert code == 2 and "legality" in err

    def test_integer_group_stretch_names_the_z2_scan(self, capsys):
        # The scan runs on the Z_2 model; the message names that command
        # rather than the path the user already asked for.
        code, _, err = run(capsys, "search", "--G", "Z", "--p", "0",
                           "--d", "2", "--stretch-membrane")
        assert code == 2 and "legality" in err
        assert "--G Z2 --stretch-membrane" in err

    def test_stretch_scan_with_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "scan.json"
        code, doc, _ = run_json(capsys, "search", "--G", "Z2", "--p", "0",
                                "--d", "2", "--stretch-membrane",
                                "--attempts", "2", "--checkpoint", str(ck))
        assert code == 0 and doc["attempts"] == 2
        assert ck.exists()
        saved = json.loads(ck.read_text())
        assert saved["done"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]

    def test_truncated_checkpoint_is_bad_input(self, capsys, tmp_path):
        # A kill in the middle of a plain write leaves a cut-off file.
        ck = tmp_path / "scan.json"
        run(capsys, "search", "--G", "Z2", "--p", "0", "--d", "2",
            "--stretch-membrane", "--attempts", "2", "--checkpoint", str(ck))
        ck.write_text(ck.read_text()[:20])
        code, _, err = run(capsys, "search", "--G", "Z2", "--p", "0",
                           "--d", "2", "--stretch-membrane",
                           "--attempts", "3", "--checkpoint", str(ck))
        assert code == 2
        assert "checkpoint" in err and str(ck) in err
        assert "Traceback" not in err

    def test_unwritable_checkpoint_is_bad_input(self, capsys, tmp_path,
                                                monkeypatch):
        def unreachable(*args):
            raise AssertionError("identity matrix built")

        # Reported before any search work starts.
        monkeypatch.setattr(search, "identity_matrix", unreachable)
        ck = tmp_path / "no" / "such" / "scan.json"
        code, out, err = run(capsys, "search", "--G", "Z2", "--p", "0",
                             "--d", "2", "--stretch-membrane",
                             "--attempts", "2", "--checkpoint", str(ck))
        assert code == 2 and not out
        assert err.startswith("error: ") and str(ck) in err
        assert "Traceback" not in err

    def test_unwritable_emit_process_is_bad_input(self, capsys, tmp_path):
        out_path = tmp_path / "no" / "such" / "word.txt"
        code, out, err = run(capsys, "search", "--G", "Z3", "--p", "0",
                             "--d", "2", "--emit-process", str(out_path))
        assert code == 2 and not out
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err

    def test_emit_process_without_torsion(self, capsys, tmp_path):
        # A torsion-free model has no row to lift: the run says so and
        # writes no file.  (Z3 particles in d=3 are torsion-free at
        # depths 2 and 3; depth 2 is the fast one.)
        out = tmp_path / "word.txt"
        argv = ("search", "--G", "Z3", "--p", "0", "--d", "3",
                "--depth", "2", "--emit-process", str(out))
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        assert doc["invariant_factors"] == []
        assert doc["process_steps"] is None
        code, text, _ = run(capsys, *argv)
        assert code == 0
        assert "no torsion: no process written" in text
        assert not out.exists()

    def test_emit_process_bytes(self, capsys, tmp_path):
        # The Z2 particle model's halved residual row, as a word.
        out = tmp_path / "word.txt"
        code, _, _ = run(capsys, "search", "--G", "Z2", "--p", "0",
                         "--d", "2", "--emit-process", str(out))
        assert code == 0
        assert out.read_text() == (
            "+ 0 1\n+ 0 2\n+ 0 1\n- 0 3\n+ 0 2\n- 0 1\n+ 0 3\n"
            "- 0 2\n+ 0 1\n- 0 3\n+ 0 2\n- 0 1\n+ 0 3\n- 0 2\n"
            "- 0 2\n- 0 1\n")

    def test_stretch_checkpoint_bytes(self, capsys, tmp_path):
        ck = tmp_path / "scan.json"
        code, _, _ = run(capsys, "--seed", "5", "search", "--G", "Z2",
                         "--p", "0", "--d", "2", "--stretch-membrane",
                         "--attempts", "7", "--checkpoint", str(ck))
        assert code == 0
        doc = json.loads(ck.read_bytes())
        assert doc["done"] == 7
        assert doc["successes"] == [
            {"trial": trial, "f": {"0": 1, "1": 1, "2": 1, "3": 1},
             "residual_shape": [72, 6]} for trial in (2, 4, 7)]
        # The scan's identity, written last ...
        assert list(doc)[-1] == "scan"
        assert doc.pop("scan") == {"N": 2, "p": 0, "d": 2, "depth": 3,
                                   "seed": 5}
        # ... and the rest of the document, the RNG state included,
        # byte for byte.
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
            "d5e118f2e95c78614b6ee594092f12c4682386a7929a6b3764d794e7257d407d")

    def test_checkpoint_of_another_scan_is_bad_input(self, capsys,
                                                     tmp_path):
        ck = tmp_path / "scan.json"
        run(capsys, "--seed", "5", "search", "--G", "Z2", "--p", "0",
            "--d", "2", "--stretch-membrane", "--attempts", "6",
            "--checkpoint", str(ck))
        before = ck.read_bytes()
        code, out, err = run(capsys, "--seed", "9", "search", "--G", "Z2",
                             "--p", "0", "--d", "3", "--stretch-membrane",
                             "--attempts", "8", "--checkpoint", str(ck))
        assert code == 2 and not out
        assert str(ck) in err
        assert "its d is 2, not 3" in err and "its seed is 5, not 9" in err
        assert "Traceback" not in err
        assert ck.read_bytes() == before

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--G", "Z2", "--p", "0", "--d", "2",
                  "--workers", "8"])
        assert exc.value.code == 2


class TestParserReuse:
    # Defaults of one subcommand and of --seed must not leak into the
    # next call, and every call must print what a fresh process prints.
    SEQUENCE = (
        ("check-cancel", "--coeff", "Z3", "--json"),
        ("steenrod", "--what", "psi3", "--n", "1", "--json"),
        ("check-cancel", "--json"),
        ("steenrod", "--what", "p1", "--json"),
        ("--seed", "4", "eval", "--action", "particle-quad", "--N", "5",
         "--process", "tjunction", "--json"),
        ("eval", "--action", "particle-quad", "--process", "tjunction",
         "--json"),
        ("search", "--G", "Z2", "--p", "0", "--d", "2", "--json"),
    )

    def test_one_parser_per_process(self):
        # One per command: each is built once and reused.
        assert cli._parser("eval") is cli._parser("eval")
        assert cli._parser("eval") is not cli._parser("search")

    def test_parser_adds_only_its_commands_options(self, capsys):
        # Every subcommand parses under its own parser; another
        # command's parser lists it but knows none of its options.
        argv = ["search", "--G", "Z2", "--p", "0", "--d", "2"]
        assert cli._parser("search").parse_args(argv).G == "Z2"
        with pytest.raises(SystemExit):
            cli._parser("eval").parse_args(argv)
        assert "unrecognized arguments: --G Z2" in capsys.readouterr().err

    def test_successive_calls_match_separate_processes(self, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for argv in self.SEQUENCE:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "chainphase.cli", *argv], env=env,
                capture_output=True, text=True, timeout=60)
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr), argv


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "9/9 checks passed" in out
