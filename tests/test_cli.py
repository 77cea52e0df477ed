import argparse
import copy
import io
import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pignistic
from pignistic import TransformKind, apply_transform, evaluate, pic, report_for
from pignistic.cli import EXIT_INVALID_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from pignistic.io import (
    parse_bba_document,
    parse_threshold_document,
    render_comparison,
    render_report,
)

from .conftest import DATA_DIR


@pytest.fixture
def combat_path(data_dir):
    return str(data_dir / "combat_id.json")


@pytest.fixture
def thresholds_path(data_dir):
    return str(data_dir / "thresholds_standard.json")


class TestTransformCommand:
    def test_betp_table(self, capsys, combat_path):
        assert main(["transform", "--method", "betp", "--input", combat_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.398333" in out

    def test_prscp_record(self, capsys, combat_path):
        code = main(
            ["transform", "--method", "prscp", "--input", combat_path,
             "--format", "record"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "PrScP"
        assert record["probabilities"][0] == pytest.approx(0.542030, abs=1e-4)
        assert "iterations" in record

    def test_solver_flags(self, capsys, combat_path):
        code = main(
            ["transform", "--method", "prscp", "--input", combat_path,
             "--tolerance", "1e-8", "--max-iter", "200"]
        )
        assert code == EXIT_OK

    def test_no_convergence_exit_code(self, capsys, combat_path):
        code = main(
            ["transform", "--method", "prscp", "--input", combat_path,
             "--tolerance", "1e-15", "--max-iter", "3"]
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("risk", ["nan", "2", "-0.5"])
    def test_bad_risk_exits_one_before_the_solver(self, capsys, combat_path, risk):
        # one iteration is too few, so the solver would exit 2 if it ran first
        code = main(
            ["transform", "--method", "prscp", "--input", combat_path,
             "--risk", risk, "--max-iter", "1"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID_INPUT
        assert out == "" and "threshold" in err

    def test_missing_file(self, capsys, tmp_path):
        code = main(
            ["transform", "--method", "betp", "--input", str(tmp_path / "nope.json")]
        )
        assert code == EXIT_INVALID_INPUT

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"frame": ["\u00e9"], "masses": []}'.encode("latin-1"))
        code = main(["transform", "--method", "betp", "--input", str(path)])
        assert code == EXIT_INVALID_INPUT
        assert f"error: cannot read {path}" in capsys.readouterr().err

    def test_read_error_without_strerror(self, capsys, monkeypatch, combat_path):
        def fail(*args, **kwargs):
            raise OSError("boom")

        monkeypatch.setattr(Path, "read_text", fail)
        code = main(["transform", "--method", "betp", "--input", combat_path])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: cannot read {combat_path}: boom\n"


class TestUsageErrors:
    """argparse exits 2 on a usage error, but 2 means no convergence here."""

    @pytest.mark.parametrize(
        "flags",
        [["--risk", "abc"], ["--max-iter", "x"], []],
        ids=["risk-abc", "max-iter-x", "no-input"],
    )
    def test_usage_error_exits_one(self, capsys, combat_path, thresholds_path, flags):
        argv = ["decide", "--thresholds", thresholds_path, "--risk", "0.0455", *flags]
        if flags:
            argv += ["--input", combat_path]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["decide", "--help"]) == EXIT_OK
        assert "--risk" in capsys.readouterr().out


# dest: (required, default, type, choices)
METHODS = ["betp", "prapl", "prbl", "prpl", "prscp"]
SHARED = {
    "input": (True, None, Path, None),
    "tolerance": (False, 1e-12, float, None),
    "max_iter": (False, 1000, int, None),
}
FORMAT = {"format": (False, "table", None, ["table", "record"])}
OPTIONS = {
    "transform": {
        **SHARED, **FORMAT,
        "method": (True, None, None, METHODS),
        "risk": (False, 0.0, float, None),
    },
    "pic": {**SHARED, "method": (False, "betp", None, METHODS)},
    "decide": {
        **SHARED, **FORMAT,
        "thresholds": (True, None, Path, None),
        "risk": (True, None, float, None),
    },
    "compare": {**SHARED, **FORMAT, "risk": (False, 0.0, float, None)},
}


class TestOptions:
    """Every subcommand's options, as the parser declares them."""

    def test_options_table(self):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert commands.choices.keys() == OPTIONS.keys()
        for name, sub in commands.choices.items():
            declared = {
                a.dest: (a.required, a.default, a.type, a.choices)
                for a in sub._actions if a.dest != "help"
            }
            assert declared == OPTIONS[name], name

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_exits_zero_for_every_command(self, capsys, command):
        assert main([command, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert all(f"--{dest.replace('_', '-')}" in out for dest in OPTIONS[command])


class TestPicCommand:
    def test_from_bba(self, capsys, combat_path):
        assert main(["pic", "--input", combat_path, "--method", "betp"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.092643"

    def test_from_distribution(self, capsys, tmp_path):
        doc = tmp_path / "dist.json"
        doc.write_text('{"frame": ["a", "b"], "probabilities": [0.75, 0.25]}')
        assert main(["pic", "--input", str(doc)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.188722"

    def test_distribution_whose_sum_overflows(self, capsys, tmp_path):
        doc = tmp_path / "dist.json"
        doc.write_text('{"frame": ["a", "b"], "probabilities": [1e308, 1e308]}')
        assert main(["pic", "--input", str(doc)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr() == ("", "error: probabilities must have a finite sum\n")

    @pytest.mark.parametrize("method", [kind.value for kind in TransformKind])
    def test_every_method_prints_the_transforms_pic(self, capsys, combat_path, method):
        assert main(["pic", "--input", combat_path, "--method", method.lower()]) == EXIT_OK
        m = parse_bba_document(Path(combat_path).read_text())
        expected = f"{pic(apply_transform(method, m).distribution).value:.6f}\n"
        assert capsys.readouterr().out == expected


class TestDecideCommand:
    def test_forced_prscp(self, capsys, combat_path, tmp_path):
        permissive = tmp_path / "t.json"
        permissive.write_text(
            '{"profile_name": "permissive", "bel": [0.01, 0.05, 0.1], '
            '"pl": [2.5, 2.6, 2.7]}'
        )
        code = main(
            ["decide", "--input", combat_path, "--thresholds", str(permissive),
             "--risk", "0.0455", "--format", "record"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "PrScP"
        assert record["selected"] == ["F", "N"]

    def test_standard_profile_selects_betp(self, capsys, combat_path, thresholds_path):
        code = main(
            ["decide", "--input", combat_path, "--thresholds", thresholds_path,
             "--risk", "0.0455", "--format", "record"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["method"] == "BetP"

    def test_bad_thresholds(self, capsys, combat_path, data_dir):
        code = main(
            ["decide", "--input", combat_path,
             "--thresholds", str(data_dir / "invalid" / "thresholds_bad_order.json"),
             "--risk", "0.0455"]
        )
        assert code == EXIT_INVALID_INPUT

    def test_invalid_bba_is_reported_before_a_missing_thresholds_file(
        self, capsys, data_dir, tmp_path
    ):
        code = main(
            ["decide", "--input", str(data_dir / "invalid" / "unknown_label.json"),
             "--thresholds", str(tmp_path / "missing.json"), "--risk", "0.0455"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID_INPUT and out == ""
        assert err == "error: bba document: label 'c' not in frame ('a', 'b')\n"


class TestCompareCommand:
    def test_reproduces_reference_values(self, capsys, combat_path):
        assert main(["compare", "--input", combat_path, "--risk", "0.0455"]) == EXIT_OK
        out = capsys.readouterr().out
        for value in [
            "0.398333", "0.343333", "0.153333", "0.105000",
            "0.402129", "0.352277", "0.139356", "0.106238",
            "0.454418", "0.360880", "0.117638", "0.067064",
            "0.517592", "0.405098", "0.030288", "0.047022",
            "0.542030", "0.386953", "0.032397", "0.038620",
        ]:
            assert value in out

    def test_decision_set_sizes(self, capsys, combat_path):
        main(["compare", "--input", combat_path, "--risk", "0.0455",
              "--format", "record"])
        records = json.loads(capsys.readouterr().out)
        sizes = {r["method"]: len(r["selected"]) for r in records}
        assert sizes == {"BetP": 4, "PraPl": 4, "PrPl": 4, "PrBl": 3, "PrScP": 2}

    def test_module_entry_point_prints_what_main_prints(self, capsys, combat_path):
        argv = ["compare", "--input", combat_path, "--format", "record"]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        src = str(Path(pignistic.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        child = subprocess.run(
            [sys.executable, "-m", "pignistic.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert child.stdout == expected


class TestOutputIsTheLibrarysText:
    """Each command prints exactly what the library renders, plus a newline."""

    @pytest.mark.parametrize("fmt", ["table", "record"])
    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    def test_transform(self, capsys, combat_path, kind, fmt):
        argv = ["transform", "--method", kind.value.lower(), "--input", combat_path,
                "--risk", "0.0455", "--format", fmt]
        assert main(argv) == EXIT_OK
        m = parse_bba_document(Path(combat_path).read_text())
        expected = render_report(report_for(m, kind, 0.0455), fmt)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("fmt", ["table", "record"])
    def test_decide(self, capsys, combat_path, thresholds_path, fmt):
        argv = ["decide", "--input", combat_path, "--thresholds", thresholds_path,
                "--risk", "0.0455", "--format", fmt]
        assert main(argv) == EXIT_OK
        m = parse_bba_document(Path(combat_path).read_text())
        thresholds = parse_threshold_document(Path(thresholds_path).read_text())
        expected = render_report(evaluate(m, thresholds, 0.0455), fmt)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("fmt", ["table", "record"])
    def test_compare(self, capsys, combat_path, fmt):
        argv = ["compare", "--input", combat_path, "--risk", "0.0455", "--format", fmt]
        assert main(argv) == EXIT_OK
        m = parse_bba_document(Path(combat_path).read_text())
        reports = [report_for(m, kind, 0.0455) for kind in TransformKind]
        assert capsys.readouterr().out == render_comparison(reports, fmt) + "\n"


def child_env():
    src = str(Path(pignistic.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


class TestOutputErrors:
    """Output that cannot be written exits 1 with one error line, not a traceback."""

    def argv(self, combat_path):
        return [sys.executable, "-m", "pignistic.cli", "compare", "--input", combat_path,
                "--format", "record"]

    def test_closed_pipe(self, combat_path):
        proc = subprocess.Popen(
            self.argv(combat_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(),
        )
        proc.stdout.close()  # before the child has imported numpy, let alone written
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_INVALID_INPUT
        assert b"Traceback" not in err
        assert err == b"error: cannot write output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, combat_path):
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                self.argv(combat_path), stdout=full, stderr=subprocess.PIPE,
                env=child_env(), timeout=120,
            )
        assert child.returncode == EXIT_INVALID_INPUT
        assert b"Traceback" not in child.stderr
        assert child.stderr == b"error: cannot write output: No space left on device\n"


class TestUnencodableOutput:
    """A label standard output's encoding cannot represent: a table exits 1 with one
    error line, a record exits 0, as JSON escapes the label to ASCII."""

    def run(self, tmp_path, argv):
        doc = tmp_path / "ete.json"
        doc.write_text(json.dumps({"frame": ["été", "b"], "masses": [
            {"elements": ["été"], "mass": 0.5}, {"elements": ["été", "b"], "mass": 0.5},
        ]}), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pignistic.cli", *argv, "--input", str(doc)],
            capture_output=True, env=dict(child_env(), PYTHONIOENCODING="ascii"), timeout=120,
        )

    @pytest.mark.parametrize("argv", [["transform", "--method", "betp"], ["compare"]])
    def test_table_exits_one_with_one_error_line(self, tmp_path, argv):
        child = self.run(tmp_path, argv)
        assert child.returncode == EXIT_INVALID_INPUT
        assert child.stdout == b""
        assert b"Traceback" not in child.stderr
        [line] = child.stderr.decode("ascii").splitlines()
        assert line.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("argv", [["transform", "--method", "betp"], ["compare"]])
    def test_record_exits_zero(self, tmp_path, argv):
        child = self.run(tmp_path, [*argv, "--format", "record"])
        assert child.returncode == EXIT_OK, child.stderr
        records = json.loads(child.stdout)
        for record in records if isinstance(records, list) else [records]:
            assert record["frame"] == ["été", "b"]


class TestOutputWithoutDescriptorOrCause:
    """The same one line and exit 1 where standard output is closed, has no file
    descriptor, or fails with an OSError that carries no strerror."""

    @pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 in the child")
    def test_closed_standard_output(self, combat_path):
        child = subprocess.run(
            [sys.executable, "-m", "pignistic.cli", "compare", "--input", combat_path,
             "--format", "record"],
            stderr=subprocess.PIPE, env=child_env(), timeout=120,
            preexec_fn=lambda: os.close(1),
        )
        assert child.returncode == EXIT_INVALID_INPUT
        assert child.stderr == b"error: cannot write output: standard output is closed\n"

    def test_stream_without_descriptor(self, capsys, monkeypatch, tmp_path):
        doc = tmp_path / "ete.json"
        doc.write_text(json.dumps({"frame": ["été", "b"], "masses": [
            {"elements": ["été"], "mass": 1.0},
        ]}), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main(["transform", "--method", "betp", "--input", str(doc)]) == EXIT_INVALID_INPUT
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write output: 'ascii' codec can't encode")

    def test_error_without_strerror(self, capsys, monkeypatch, combat_path, tmp_path):
        unwritable = tmp_path / "out"
        unwritable.write_text("")
        with open(unwritable) as stdout:  # opened for reading: io.UnsupportedOperation
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["transform", "--method", "betp", "--input", combat_path])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == "error: cannot write output: not writable\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_no_descriptor_leaks(self, capsys, monkeypatch, combat_path, tmp_path):
        unwritable = tmp_path / "out"
        unwritable.write_text("")
        with open(unwritable) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            code = main(["transform", "--method", "betp", "--input", combat_path])
            assert len(os.listdir("/proc/self/fd")) == before
        assert code == EXIT_INVALID_INPUT


class TestInvalidCatalog:
    @pytest.mark.parametrize(
        "name",
        [
            "bad_json.json",
            "sum_mismatch.json",
            "unknown_label.json",
            "empty_set_mass.json",
            "duplicate_focal.json",
            "duplicate_label.json",
            "mass_out_of_range.json",
            "bom.json",
            "frame_label_not_string.json",
            "thresholds_not_triple.json",
            "thresholds_profile_not_string.json",
        ],
    )
    def test_exit_code_one(self, capsys, data_dir, combat_path, name):
        path = str(data_dir / "invalid" / name)
        if name.startswith("thresholds_"):
            argv = ["decide", "--input", combat_path, "--thresholds", path, "--risk", "0.0455"]
        else:
            argv = ["transform", "--method", "betp", "--input", path]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "error" in capsys.readouterr().err


class TestInfiniteThreshold:
    def test_overflowing_threshold_exits_one(self, capsys, combat_path, tmp_path):
        # JSON 1e999 parses to infinity without passing through parse_constant
        thresholds = tmp_path / "t.json"
        thresholds.write_text('{"bel": [0.1, 0.2, 1e999], "pl": [1.2, 1.5, 1.8]}')
        code = main(
            ["decide", "--input", combat_path, "--thresholds", str(thresholds),
             "--risk", "0.0455"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID_INPUT
        assert out == "" and "finite" in err


class TestIntegerTooLargeForAFloat:
    """A 401-digit JSON integer is a value error (exit 1, one line), not a traceback."""

    BIG = "1" + "0" * 400

    def assert_one_error_line(self, capsys, code):
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID_INPUT
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_pic_distribution(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(f'{{"frame": ["a", "b"], "probabilities": [{self.BIG}, 0]}}')
        self.assert_one_error_line(capsys, main(["pic", "--input", str(path)]))

    def test_decide_thresholds(self, capsys, combat_path, tmp_path):
        thresholds = tmp_path / "t.json"
        thresholds.write_text(f'{{"bel": [0.1, 0.2, {self.BIG}], "pl": [1.2, 1.5, 1.8]}}')
        code = main(
            ["decide", "--input", combat_path, "--thresholds", str(thresholds),
             "--risk", "0.0455"]
        )
        self.assert_one_error_line(capsys, code)


class TestRecordFormat:
    """``--format record`` writes one JSON line, equal to the in-process result."""

    def test_decide_record_is_one_line(self, capsys, combat_path, thresholds_path):
        code = main(
            ["decide", "--input", combat_path, "--thresholds", thresholds_path,
             "--risk", "0.0455", "--format", "record"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("\n") == 1 and out.endswith("\n")
        m = parse_bba_document(Path(combat_path).read_text())
        thresholds = parse_threshold_document(Path(thresholds_path).read_text())
        expected = render_report(evaluate(m, thresholds, 0.0455), "record")
        assert json.loads(out) == json.loads(expected)

    def test_compare_record_is_one_line(self, capsys, combat_path):
        code = main(
            ["compare", "--input", combat_path, "--risk", "0.0455", "--format", "record"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("\n") == 1 and out.endswith("\n")
        m = parse_bba_document(Path(combat_path).read_text())
        reports = [report_for(m, kind, 0.0455) for kind in TransformKind]
        records = json.loads(out)
        assert records == json.loads(render_comparison(reports, "record"))
        assert [r["method"] for r in records] == [k.value for k in TransformKind]


#: What a mutation writes in place of a field: an integer above 2^53, the
#: smallest subnormal, a negative zero, and values of the wrong JSON type.
ATOMS = [2**70, 5e-324, -0.0, True, None, "1", [[]], {}]
COMBAT_DOCUMENT = json.loads((DATA_DIR / "combat_id.json").read_text())


def json_paths(node, path=()):
    """The path of every value below ``node``, as tuples of keys and indices."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from json_paths(child, path + (key,))


@st.composite
def built_bba_documents(draw):
    """A valid BBA document; zero masses are allowed, as long as one is not."""
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True))
    members = st.sets(st.sampled_from(labels), min_size=1).map(sorted)
    sets = draw(st.lists(members, min_size=1, max_size=6, unique_by=tuple))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=len(sets), max_size=len(sets)).filter(any)
    )
    total = sum(weights)
    return {
        "frame": labels,
        "masses": [{"elements": s, "mass": w / total} for s, w in zip(sets, weights)],
    }


@st.composite
def mutated_bba_documents(draw):
    """A valid BBA document with one field deleted, duplicated or replaced."""
    doc = copy.deepcopy(draw(st.one_of(st.just(COMBAT_DOCUMENT), built_bba_documents())))
    action = draw(st.sampled_from(["delete", "duplicate", *ATOMS]))
    paths = sorted(json_paths(doc), key=len, reverse=True)  # Hypothesis favours the first
    if action == "duplicate":  # JSON keeps one of two equal keys: duplicate list items
        paths = [p for p in paths if isinstance(reduce(getitem, p[:-1], doc), list)]
    *at, key = draw(st.sampled_from(paths))
    parent = reduce(getitem, at, doc)
    if action == "delete":
        del parent[key]
    elif action == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(action)
    return doc


@given(doc=mutated_bba_documents())
@settings(
    derandomize=True, database=None, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_documents_exit_zero_one_or_two(capsys, tmp_path, thresholds_path, doc):
    """Every command answers (0), rejects the input (1) or reports no
    convergence (2); it prints nothing to stdout unless it answers."""
    path = tmp_path / "bba.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["decide", "--thresholds", thresholds_path, "--risk", "0.0455"],
        ["compare", "--risk", "0.0455"],
        ["pic"],
        ["transform", "--method", "prscp", "--max-iter", "3"],  # too few for many BBAs: 2
    ):
        code = main([*argv, "--input", str(path)])
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_NO_CONVERGENCE)
        assert code == EXIT_OK or out == ""
