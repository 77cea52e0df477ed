import pignistic
from pignistic import decision, errors, frame, metrics, transforms

# The package's public names: each submodule declares its own in its
# ``__all__`` and the package re-exports exactly those.
PUBLIC = {
    "ConvergenceError",
    "DecisionReport",
    "DuplicateFocalSetError",
    "DuplicateLabelError",
    "EmptyFrameError",
    "EmptySetMassError",
    "FocalSet",
    "Frame",
    "FrameMismatchError",
    "FrameTooLargeError",
    "MassFunction",
    "MassOutOfRangeError",
    "MassSumMismatchError",
    "ParseError",
    "PicScore",
    "PignisticError",
    "ProbabilityDistribution",
    "SingletonVector",
    "SolverConfig",
    "ThresholdSet",
    "TransformKind",
    "TransformResult",
    "UnknownLabelError",
    "UnsupportedDivergenceError",
    "ValidationError",
    "apply_transform",
    "bet_p",
    "decision_set",
    "evaluate",
    "kl_divergence",
    "make_frame",
    "make_mass_function",
    "pic",
    "pr_bl",
    "pr_pl",
    "pr_sc_p",
    "pra_pl",
    "prscp_residual",
    "report_for",
    "select_transform",
}
MODULES = (decision, errors, frame, metrics, transforms)


def test_the_package_exports_its_public_names():
    assert len(pignistic.__all__) == len(PUBLIC) == 40
    assert set(pignistic.__all__) == PUBLIC


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from pignistic import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_each_module_declares_names_it_defines_and_the_package_joins_them():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert value.__module__ == module.__name__, name
            assert getattr(pignistic, name) is value, name
    assert sorted(name for module in MODULES for name in module.__all__) == sorted(PUBLIC)
