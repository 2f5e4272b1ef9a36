"""Mutants of the source, each killed by a named test when applied.

Each row is (file, old, new, test): replacing the one occurrence of ``old``
in ``file`` by ``new`` makes ``test`` fail.  test_mutants.py checks that
every ``old`` is still in ``src/`` exactly once, so a refactor carries its
mutants along rather than orphaning them.
"""

_LATTICE = "src/sigmaprime/lattice.py"
_CLI = "src/sigmaprime/cli.py"
_IDENTITIES = "src/sigmaprime/identities.py"
_PATTERNFIT = "src/sigmaprime/patternfit.py"
_POWERSUMS = "src/sigmaprime/powersums.py"
_REPRESENTATIONS = "src/sigmaprime/representations.py"
_ARITH = "src/sigmaprime/arith.py"

_TABLE_PARSE_DASH = '                " " not in value or value[:2] in ("-h", "--")'
_SIEVE_DOWN = "    for p in range(isqrt(top - 1), 1, -1):"

MUTANTS = [
    # the two kernels over a factorization, sigma_k's Horner rule among them
    (_ARITH, "            local = local * pk + 1", "            local = local * pk",
     "test_sigma_k_oracle"),
    (_ARITH, "        while e > 1:", "        while e > 2:",
     "test_kernels_match_enumeration_on_scaled_factorizations"),
    (_ARITH, "for k in range(e + 1)]", "for k in range(e)]",
     "test_kernels_match_enumeration_on_scaled_factorizations"),
    # the least-prime table and the g tables of the moment core
    (_LATTICE, _SIEVE_DOWN, "    for p in range(2, isqrt(top - 1) + 1):",
     "test_factor_table_matches_factorize"),
    (_LATTICE, _SIEVE_DOWN, "    for p in range(isqrt(top - 1) - 1, 1, -1):",
     "test_factor_table_matches_factorize"),
    (_LATTICE, "            table[m] = m**i + p**k * table[m // p]",
     "            table[m] = m**i + m**k * table[m // p]",
     "test_sigma_table_matches_sigma_k"),
    # the product route of the moment core
    (_LATTICE, "width = (max(g_ik) * max(g_jl) * top).bit_length() // 8 + 1",
     "width = (max(g_ik) * max(g_jl) * top).bit_length() // 8",
     "test_product_route_matches_per_n_route"),
    (_LATTICE, "slots[big_n * width : (big_n + 1) * width]",
     "slots[(big_n + 1) * width : (big_n + 2) * width]",
     "test_product_route_matches_per_n_route"),
    (_LATTICE, 'for v in table[:top]), "little")', 'for v in table[:top - 1]), "little")',
     "test_product_route_matches_per_n_route"),
    (_LATTICE,
     "    return digits**8 < (_STEPS_PER_PRODUCT * (products - _SLOT_COST * top)) ** 5",
     "    return True",
     "test_product_route_rule_decisions"),
    (_LATTICE, "    digits = top * (degree + 1) * top.bit_length() // 30 + 1",
     "    digits = top * top.bit_length() // 30 + 1",
     "test_product_route_rule_decisions"),
    (_LATTICE, "            memo = _product_memo(terms, top)",
     "            memo = [None] * (top + 1)",
     "test_moment_sums_takes_the_route_the_rule_picks"),
    # the pre-identity's one comparison and its gate
    (_LATTICE, "all_equal=conv == moment", "all_equal=True",
     "test_pre_identity_compares_its_two_routes"),
    (_LATTICE, "rows=_SIGMA_PRIME_TERM_COST * n", "rows=n",
     "test_pre_identity_refuses_over_budget_before_its_sums"),
    # the CLI's table parser, document writer and size check
    (_CLI, _TABLE_PARSE_DASH, '                " " not in value or value[:2] == "--"',
     "test_table_parse_is_argparse_where_it_answers"),
    (_CLI, _TABLE_PARSE_DASH, '                " " not in value or value[:2] == "-h"',
     "test_table_parse_is_argparse_where_it_answers"),
    (_CLI, "    if kind is int:", "    if isinstance(value, int):",
     "test_json_writer_matches_json_dumps"),
    (_CLI, '    inner = pad + "  "', '    inner = pad + " "',
     "test_json_writer_matches_json_dumps"),
    (_CLI, "((n - 1) ** 64)", "(n ** 64)",
     "test_unprintable_check_refuses_only_what_str_refuses"),
    (_CLI, "def _cmd_selftest(args):\n    from .acceptance import run_all",
     "from .acceptance import run_all\n\n\ndef _cmd_selftest(args):",
     "test_cold_import_leaves_out_dataclasses_and_the_checklist"),
    # probe10 reads an explicit empty list, not the default
    (_CLI, "DEFAULT_TRAIN_NS if args.train is None else", "DEFAULT_TRAIN_NS if not args.train else",
     "test_probe10_empty_list_is_a_usage_error"),
    (_CLI, "DEFAULT_TEST_NS if args.test is None else", "DEFAULT_TEST_NS if not args.test else",
     "test_probe10_empty_list_is_a_usage_error"),
    # the polynomial grammar
    (_IDENTITIES, "            if term.start() and not sign:", "            if False:",
     "test_parser_rejects_bad_input"),
    (_IDENTITIES, '_FACTOR = re.compile(r"([abxy])(?:\\^(\\d*))?")',
     '_FACTOR = re.compile(r"([abxy])(?:\\^(\\d+))?")',
     "test_parser_rejects_bad_input"),
    (_IDENTITIES, "1 if e is None else int(e)", "0 if e is None else int(e)",
     "test_parser_whitespace_and_implicit_exponent"),
    (_IDENTITIES, "            if type(coeff) is not int:", "            if False:",
     "test_poly_rejects_non_integer_terms"),
    (_IDENTITIES, "type(e) is int and e >= 0", "isinstance(e, int) and e >= 0",
     "test_poly_rejects_non_integer_terms"),
    # the right side's power sums
    (_IDENTITIES, "row = (-1) ** l * e ** (i + j) * m(l, k)", "row = e ** (i + j) * m(l, k)",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "- (-1) ** j * e ** (k + l) * m(i, j)", "- (-1) ** j * e ** (i + j) * m(i, j)",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "        if not k:\n", "        if True:\n",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "    rest = [d - x for x in pts]", "    rest = [d + x for x in pts]",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "map(pow, rest, repeat(v))", "map(pow, rest, repeat(u))",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "_right_side(f, d, n // d, range(1, d))", "_right_side(f, d, n // d, range(1, d + 1))",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "for d in divisors(n))", "for d in divisors(n)[:-1])",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    (_IDENTITIES, "[t for t in range(1, n) if gcd(t, n) == 1]", "list(range(1, n))",
     "test_right_side_matches_the_literal_rows_at_large_n"),
    # the left side's Pascal rows, parity steps, signs and key reduction
    (_IDENTITIES, "        row.append(row[q] * (k - q) // (q + 1))",
     "        row.append(row[q] * (k - q + 1) // (q + 1))",
     "test_pascal_rows_match_comb"),
    (_IDENTITIES, "for q in range((j - p + 1) % 2, k + 1, 2):", "for q in range((j - p) % 2, k + 1, 2):",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "for q in range((l - p + 1) % 2, l + 1, 2):", "for q in range(0, l + 1, 2):",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "(2 * c if l % 2 == 0 else -2 * c)", "(2 * c if l % 2 else -2 * c)",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "weight = 2 * c * binom if (j - p) % 2 == 0 else -2 * c * binom",
     "weight = 2 * c * binom",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "weight = 2 * c * binom if p % 2 == 0 else -2 * c * binom",
     "weight = 2 * c * binom if p % 2 else -2 * c * binom",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "key = min((a, b, x, y), (b, a, y, x), (x, y, a, b), (y, x, b, a))",
     "key = min((a, b, x, y), (b, a, y, x), (x, y, a, b))",
     "test_left_moments_match_the_comb_oracle"),
    (_IDENTITIES, "key = min((a, b, x, y), (b, a, y, x), (x, y, a, b), (y, x, b, a))",
     "key = min((a, b, x, y), (x, y, a, b), (y, x, b, a))",
     "test_left_moments_match_the_comb_oracle"),
    # the stored coefficient rows: their forms and their twins over B(n)
    (_IDENTITIES, "zip(coefficients, _columns(r, s)) if c)", "zip(coefficients, _columns(r, s)))",
     "test_stored_forms_hold_no_zero_term"),
    (_IDENTITIES, "b * n * sigma_k(r + s - 1, n)", "b * sigma_k(r + s - 1, n)",
     "test_sigma_twins_match_the_b_oracle"),
    (_IDENTITIES, "b * n * sigma_k(r + s - 1, n)", "b * n * sigma_k(r + s + 1, n)",
     "test_sigma_twins_match_the_b_oracle"),
    (_IDENTITIES, "c * sigma_k(r, n) + d * sigma_k(s, n)", "c * sigma_k(s, n) + d * sigma_k(r, n)",
     "test_twins_of_t11_and_t13_are_besge_and_glaisher"),
    # the range entry: every n's gate before any expansion
    (_IDENTITIES, "work = _identity_work(f, n, which)", "work = _identity_work(f, ns[0], which)",
     "test_sides_over_refuses_a_range_before_expanding"),
    # the exact fitter and its gates
    (_PATTERNFIT, "                g = gcd(*row) or 1", "                g = gcd(*row)",
     "test_fit_recovers_every_stored_theorem"),
    (_PATTERNFIT, "    for i in range(rank, m):", "    for i in range(rank + 1, m):",
     "test_one_spare_equation_decides_consistency"),
    (_PATTERNFIT,
     '    arith._check_work(solve, "the exact solve of the fit needs about {work} units of work")',
     "    pass",
     "test_fit_refuses_its_solve_before_any_work"),
    (_PATTERNFIT, "weight * isqrt(weight)", "weight", "test_solve_work_estimate"),
    (_PATTERNFIT,
     "    arith._check_work(work, \"the fit's solve and oracle together need about {work} units of work\")",
     "    pass",
     "test_fit_refuses_its_solve_and_oracle_together"),
    (_PATTERNFIT, "    return [[form.evaluate(n) for form in forms] for n in ns]",
     "    return [[form.evaluate(n) for form in reversed(forms)] for n in ns]",
     "test_fit_recovers_every_stored_theorem"),
    (_PATTERNFIT, "    form = _ansatz_form(r, s, coeffs[:4])", "    form = _ansatz_form(s, r, coeffs[:4])",
     "test_fit_and_validate_zero_residuals"),
    # an inconsistent fit still checks its test points
    (_PATTERNFIT, "test_ns=_test_points(test_ns, report.train_ns)", "test_ns=tuple(sorted(set(test_ns)))",
     "test_bad_test_points_are_a_usage_error_whatever_the_fit"),
    # power sums and closed forms
    (_POWERSUMS, "        work = n * arith._bit_weight(k, n) ** 2",
     "        work = n * arith._bit_weight(k, n)",
     "test_big_power_budget_exit_3"),
    (_POWERSUMS,
     "numerators = tuple(coeff.numerator * (common // coeff.denominator) for coeff, _, _ in terms)",
     "numerators = tuple(coeff.numerator for coeff, _, _ in terms)",
     "test_methods_agree_on_a_grid"),
    (_POWERSUMS, "b = max([0, *(-power for _, power, _ in terms)])", "b = 0",
     "test_evaluate_keeps_negative_powers_exact"),
    (_POWERSUMS, "_divisors_of([(p, 1) for p, _ in factorize(n)])",
     "_divisors_of(factorize(n))",
     "test_moebius_route_expands_only_squarefree_divisors"),
    # the validating records, the raw count's listing, M estimate and M scan
    (_REPRESENTATIONS, "        if r < 1 or s < 1:", "        if r < 1:", "test_count_spec_refuses"),
    (_REPRESENTATIONS, "    listing = (spec.n, spec.solution_set)", "    listing = (spec.n, spec.which)",
     "test_verify_lm_enumerates_each_set_once_per_n"),
    (_REPRESENTATIONS, "    return [(p, r * e) for p, e in factorize(u)]",
     "    return [(p, e) for p, e in factorize(u)]",
     "test_raw_matches_nested_tuple_loop"),
]
