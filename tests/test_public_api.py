"""The public API, pinned: a dropped or renamed public name fails here."""

import importlib

import sigmaprime

PUBLIC = {
    "sigmaprime": [
        "bernoulli",
        "divisors",
        "factorize",
        "faulhaber_sum",
        "mobius",
        "sigma_k",
        "totient",
        "psi",
        "coprime_power_sum",
        "ClosedForm",
        "COPRIME_POWER_FORMS",
        "enumerate_quadruples",
        "quadruples",
        "sigma_prime",
        "brute_convolution",
        "check_pre_identity",
        "PreIdentityReport",
        "Poly4",
        "symmetry_holds",
        "main_identity_sides",
        "random_symmetric_poly",
        "PROOF_POLYNOMIALS",
        "TheoremId",
        "parse_theorem_id",
        "THEOREM_RS",
        "THEOREM_BY_RS",
        "theorem_form",
        "eval_theorem",
        "verify_theorem",
        "VerifyRow",
        "VerifyReport",
        "besge_check",
        "glaisher_check",
        "CountSpec",
        "count_fast",
        "count_raw",
        "verify_lm",
        "LMRow",
        "LMReport",
        "BudgetExceededError",
        "PatternCoeffs",
        "FitReport",
        "fit",
        "validate",
        "fit_and_validate",
        "probe_weight10",
        "pattern_value",
        "theorem_pattern",
        "__version__",
    ],
    "sigmaprime.arith": [
        "factorize",
        "divisors",
        "mobius",
        "totient",
        "sigma_k",
        "sigma_convolution",
        "bernoulli",
        "faulhaber_sum",
    ],
    "sigmaprime.powersums": [
        "psi",
        "coprime_power_sum",
        "ClosedForm",
        "COPRIME_POWER_FORMS",
        "POWER_SUM_METHODS",
    ],
    "sigmaprime.lattice": [
        "SOLUTION_SETS",
        "BudgetExceededError",
        "enumerate_quadruples",
        "quadruples",
        "sigma_prime",
        "brute_convolution",
        "check_pre_identity",
        "PreIdentityReport",
    ],
    "sigmaprime.identities": [
        "Poly4",
        "symmetry_holds",
        "main_identity_sides",
        "random_symmetric_poly",
        "PROOF_POLYNOMIALS",
        "TheoremId",
        "parse_theorem_id",
        "THEOREM_RS",
        "THEOREM_BY_RS",
        "theorem_form",
        "eval_theorem",
        "verify_theorem",
        "VerifyRow",
        "VerifyReport",
        "besge_check",
        "glaisher_check",
    ],
    "sigmaprime.representations": [
        "COUNTERS",
        "CountSpec",
        "BudgetExceededError",
        "count_fast",
        "count_raw",
        "verify_lm",
        "LMRow",
        "LMReport",
        "DEFAULT_BUDGET",
    ],
    "sigmaprime.patternfit": [
        "PatternCoeffs",
        "FitReport",
        "fit",
        "validate",
        "fit_and_validate",
        "probe_weight10",
        "pattern_value",
        "theorem_pattern",
        "WEIGHT10_PAIRS",
        "DEFAULT_TRAIN_NS",
        "DEFAULT_TEST_NS",
    ],
    "sigmaprime.acceptance": ["CriterionResult", "Criterion", "CRITERIA", "run_all"],
    "sigmaprime.cli": ["main", "console_entry"],
}


def test_public_names_are_pinned():
    modules = {name: importlib.import_module(name) for name in PUBLIC}
    # every module of the package that declares __all__ is pinned here
    declared = {
        f"sigmaprime.{name}"
        for name in vars(sigmaprime)
        if hasattr(getattr(sigmaprime, name), "__all__")
    }
    assert declared <= set(PUBLIC)
    for name, module in modules.items():
        assert list(module.__all__) == PUBLIC[name], name
        for attr in module.__all__:
            assert hasattr(module, attr), (name, attr)
