"""Fast self-tests of the benchmark itself.

    python3 -m pytest -q benchmarks/selftest.py

The file name does not match pytest's ``test_*.py`` pattern and the project's
``testpaths`` is ``tests``, so the repository's own test run never collects
it.
"""

import os
import subprocess
import sys
import time

import corpus
import pytest
from gate import Case, Gate, reference_values
from program import ROOT, import_program
from run import MIN_BEYOND, percentile
from spans import Tracer

pg = import_program()

DIGEST = (
    "import corpus, hashlib, pathlib; "
    "h = hashlib.sha256(); "
    "[h.update(d.encode()) for d in corpus.decide_documents(3, 50)]; "
    "h.update(repr(corpus.compare_bbas(3)).encode()); "
    "h.update(repr(corpus.prscp_corpus(3, pathlib.Path(%r))).encode()); "
    "print(h.hexdigest())"
) % str(ROOT)


def _digest_in_child(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST], capture_output=True, text=True,
        env=env, cwd=ROOT / "benchmarks", check=True,
    )
    return proc.stdout.strip()


def test_generator_is_deterministic_across_processes():
    assert _digest_in_child("1") == _digest_in_child("2")


def test_generator_depends_on_seed():
    assert corpus.decide_documents(1, 20) == corpus.decide_documents(1, 20)
    assert corpus.decide_documents(1, 20) != corpus.decide_documents(2, 20)
    assert corpus.prscp_corpus(1, ROOT)[2:] != corpus.prscp_corpus(2, ROOT)[2:]


def test_generated_bbas_are_valid_and_sized():
    for labels, assignments in corpus.compare_bbas(0):
        m = pg.MassFunction.from_labels(pg.Frame(labels), assignments)
        assert (len(labels), len(m)) in corpus.COMPARE_SIZES
    for text in corpus.decide_documents(0, 200):
        case = Case.from_document(text)
        singletons = sum(1 for members, _ in case.assignments if len(members) == 1)
        assert 3 <= len(case.labels) <= 8 and singletons == len(case.labels)
        assert 1 <= len(case.assignments) - singletons <= 12


def test_reference_values_cover_all_five_transforms():
    refs = reference_values()
    assert list(refs) == [kind.value for kind in pg.TransformKind]
    assert all(len(values) == 4 for values in refs.values())


def _combat_case():
    return Case(*corpus.combat_id(ROOT))


@pytest.mark.parametrize("method", ["BetP", "PraPl", "PrPl", "PrBl", "PrScP"])
def test_gate_accepts_true_distributions(method):
    case = _combat_case()
    probs = pg.apply_transform(method, case.mass_function).distribution.probabilities
    gate = Gate(corpus.RISK)
    gate.check_distribution("combat", case, method, probs)
    gate.check_combat_reference()
    assert gate.correct, gate.errors


@pytest.mark.parametrize(
    "method, shift",
    [("BetP", 1e-16), ("PraPl", 1e-6), ("PrPl", 1e-6), ("PrBl", 1e-6), ("PrScP", 1e-6)],
)
def test_gate_catches_a_perturbed_distribution(method, shift):
    case = _combat_case()
    probs = list(pg.apply_transform(method, case.mass_function).distribution.probabilities)
    probs[0] += shift
    probs[1] -= shift
    gate = Gate(corpus.RISK)
    gate.check_distribution("combat", case, method, probs)
    assert not gate.correct


def test_gate_catches_a_wrong_decision_set():
    case = _combat_case()
    report = pg.report_for(case.mass_function, pg.TransformKind.PR_BL, corpus.RISK)
    record = {
        "method": "PrBl",
        "frame": case.labels,
        "probabilities": [float(p) for p in report.distribution.probabilities],
        "decision_threshold": corpus.RISK,
        "selected": list(report.selected),
    }
    gate = Gate(corpus.RISK)
    gate.check_record("combat", case, record)
    assert gate.correct, gate.errors
    record["selected"] = record["selected"][:-1]
    gate.check_record("combat", case, record)
    assert not gate.correct


def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1, 1001)), 99) == 990


def test_self_time_excludes_child_spans():
    tr = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        tr.call("child", child)
        time.sleep(0.01)

    tr.call("parent", parent)
    own = dict(zip((s[0] for s in tr.spans), tr.self_times()))
    assert tr.spans[1][3] == 0
    assert 0.009e9 < own["parent"] < 0.019e9
    assert own["child"] >= 0.02e9
    assert 0.6 < tr.coverage("parent") < 0.8
