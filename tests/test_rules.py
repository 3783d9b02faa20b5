import dataclasses
import importlib.resources
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmap.errors import ConfigError, RuleSyntaxError
from specmap.raster import LegendEntry, format_color, parse_color
from specmap.rules import (
    _BLOCK_PIXELS,
    MAX_NESTING,
    And,
    Arith,
    BandRef,
    Cmp,
    Const,
    Or,
    RequiresBand,
    Rule,
    RuleSet,
    compile_rules,
    eval_expr,
    eval_rule,
    format_expr,
    format_rules,
    load_specl,
    make_and,
    parse_rules,
    referenced_bands,
    required_bands,
)

from helpers import SPECL_ORDER, rulesets

HEADER = "bands: b1@0.48, b2@0.56, b3@0.66, b4@0.83, b5@1.6, b7@2.2\n"


def parse_expr(text: str):
    ruleset = parse_rules(
        HEADER + 'rule 1 "x" color #000000 { ' + text + ' }\nfallback 9 "f"\n'
    )
    return ruleset.rules[0].expr


class TestParser:
    def test_row1_structure(self):
        expr = parse_expr("b4/b3 <= 1.3 AND b3 >= 0.2 AND b5 <= 0.12")
        assert expr == And((
            Cmp(Arith("/", BandRef("b4"), BandRef("b3")), "<=", Const(1.3)),
            Cmp(BandRef("b3"), ">=", Const(0.2)),
            Cmp(BandRef("b5"), "<=", Const(0.12)),
        ))

    def test_chained_comparison_desugars(self):
        expr = parse_expr("0.85 <= b1/b4 <= 1.15")
        ratio = Arith("/", BandRef("b1"), BandRef("b4"))
        assert expr == And((
            Cmp(Const(0.85), "<=", ratio),
            Cmp(ratio, "<=", Const(1.15)),
        ))

    def test_empty_text_is_syntax_error(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("")

    def test_empty_rule_body_rejected(self):
        with pytest.raises(RuleSyntaxError, match="empty rule body"):
            parse_rules(HEADER + 'rule 1 "x" color #000000 { }\nfallback 9 "f"\n')

    def test_undeclared_band_rejected_with_position(self):
        with pytest.raises(RuleSyntaxError, match="b9") as err:
            parse_expr("b9 <= 0.5")
        assert err.value.line >= 1 and err.value.column >= 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(HEADER + 'rule 1 "x" color #000000 { b4 <= }\nfallback 9 "f"\n')
        assert err.value.line == 2

    @pytest.mark.parametrize("text, token", [
        (HEADER + 'rule 1.5 "x" color #000000 { b4 <= 0.5 }\nfallback 9 "f"\n', (2, 6)),
        (HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\nclass 2. "c" color #111111\n'
         'fallback 9 "f"\n', (3, 7)),
        (HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\nfallback .9 "f"\n', (3, 10)),
    ], ids=["rule", "class", "fallback"])
    def test_fractional_index_rejected_at_its_token(self, text, token):
        with pytest.raises(RuleSyntaxError, match="expected an integer index") as err:
            parse_rules(text)
        assert (err.value.line, err.value.column) == token

    def test_repeated_band_symbol_rejected_at_its_token(self):
        with pytest.raises(RuleSyntaxError, match="repeated band symbol 'b1'") as err:
            parse_rules('bands: b1@0.48, b1@0.56\n'
                        'rule 1 "x" color #000000 { b1 <= 0.5 }\nfallback 9 "f"\n')
        assert (err.value.line, err.value.column) == (1, 17)

    def test_text_cut_mid_rule_reports_the_end_of_the_last_token(self):
        rule = 'rule 1 "x" color #000000 { b4 <= 0.5'
        with pytest.raises(RuleSyntaxError, match="end of file") as err:
            parse_rules(HEADER + rule + "  // cut here\n")
        assert (err.value.line, err.value.column) == (2, len(rule) + 1)

    @pytest.mark.parametrize("inner, outer", [
        ("b4 <= 0.5", ""), ("b4", " <= 0.5"),
    ], ids=["boolean", "numeric"])
    def test_deep_nesting_rejected_at_the_first_paren_past_the_limit(self, inner, outer):
        # 2 000 levels used to end in a RecursionError.
        prefix = 'rule 1 "x" color #000000 { '
        text = "(" * 2000 + inner + ")" * 2000 + outer
        with pytest.raises(RuleSyntaxError, match=f"nested deeper than {MAX_NESTING}") as err:
            parse_rules(HEADER + prefix + text + ' }\nfallback 9 "f"\n')
        assert (err.value.line, err.value.column) == (2, len(prefix) + MAX_NESTING + 1)
        nested = "(" * MAX_NESTING + inner + ")" * MAX_NESTING + outer
        assert parse_expr(nested) == parse_expr(inner + outer)

    @pytest.mark.parametrize("terms", [600, 2000])
    def test_long_operator_chain_rejected_at_the_first_operator_past_the_limit(
            self, terms):
        # 2 000 terms used to end in a RecursionError in parse_rules; 600
        # parsed, then ended in one in compile_rules and in hash(expr).
        prefix = 'rule 1 "x" color #000000 { '
        text = " - ".join(["b1"] * terms) + " > 0"
        with pytest.raises(RuleSyntaxError,
                           match=f"operator '-' nested deeper than {MAX_NESTING}") as err:
            parse_rules(HEADER + prefix + text + ' }\nfallback 9 "f"\n')
        # The operator after MAX_NESTING + 1 terms is one level too deep.
        limit = " - ".join(["b1"] * (MAX_NESTING + 1))
        assert (err.value.line, err.value.column) == (2, len(prefix) + len(limit) + 2)

    @pytest.mark.parametrize("at", [0, 1], ids=["left", "right"])
    def test_parentheses_and_operators_add_up_to_the_limit(self, at):
        # A group of 60 levels under 40 operators is 100 levels deep,
        # whether it is the chain's first operand or its second.
        terms = ["b3"] * 41
        terms[at] = "(" * 60 + "b1" + ")" * 60
        chain = " + ".join(terms)
        terms[at] = "b1"
        assert parse_expr(chain + " > 0") == parse_expr(" + ".join(terms) + " > 0")
        with pytest.raises(RuleSyntaxError, match=r"operator '\+' nested deeper") as err:
            parse_expr(chain + " + b3 > 0")
        prefix = 'rule 1 "x" color #000000 { '
        assert (err.value.line, err.value.column) == (2, len(prefix) + len(chain) + 2)

    def test_missing_fallback_rejected(self):
        with pytest.raises(RuleSyntaxError, match="fallback"):
            parse_rules(HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\n')

    @pytest.mark.parametrize("text, message, position", [
        (HEADER + 'rule 1 "x color #000000 { b4 <= 0.5 }\nfallback 9 "f"\n',
         """cannot tokenize '"x color #'""", (2, 8)),
        (HEADER + '42\nrule 1 "x" color #000000 { b4 <= 0.5 }\nfallback 9 "f"\n',
         "expected a declaration keyword, got '42'", (2, 1)),
        (HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\nfallback 9 "f"\nfallback 8 "g"\n',
         "duplicate fallback declaration, got 'fallback'", (4, 1)),
        (HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\nrules 2 "y"\nfallback 9 "f"\n',
         "expected bands/policy/rule/class/fallback, got 'rules'", (3, 1)),
        (HEADER + 'fallback 9 "f"\n', "rule file declares no rules", (1, 1)),
        # The policy is named at its first word, not at the token after it.
        ('policy any-match\n' + HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 }\n'
         'fallback 9 "f"\n',
         "policy must be one of ('last-match', 'first-match'), got 'any-match'", (1, 8)),
    ], ids=["tokenize", "keyword", "fallback_twice", "unknown_keyword", "no_rules",
            "policy"])
    def test_file_level_refusal_names_its_position(self, text, message, position):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        line, column = position
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == position

    def test_duplicate_indices_rejected(self):
        text = (
            HEADER
            + 'rule 1 "x" color #000000 { b4 <= 0.5 }\n'
            + 'rule 1 "y" color #111111 { b4 >= 0.5 }\n'
            + 'fallback 9 "f"\n'
        )
        with pytest.raises(ConfigError, match="unique"):
            parse_rules(text)

    def test_or_groups_and_guards(self):
        expr = parse_expr("(b2/b3 >= 0.8 OR b3 <= 0.15) AND requires(b5, b5 >= 0.3)")
        assert isinstance(expr, And)
        assert isinstance(expr.children[0], Or)
        assert expr.children[1] == RequiresBand(
            "b5", Cmp(BandRef("b5"), ">=", Const(0.3))
        )

    def test_arithmetic_precedence(self):
        expr = parse_expr("b3 >= b4 + 0.005")
        assert expr == Cmp(
            BandRef("b3"), ">=", Arith("+", BandRef("b4"), Const(0.005))
        )
        expr = parse_expr("b1 + b2/b3 <= 1.0")
        assert expr == Cmp(
            Arith("+", BandRef("b1"), Arith("/", BandRef("b2"), BandRef("b3"))),
            "<=",
            Const(1.0),
        )


class TestEval:
    def test_row16_true(self):
        expr = parse_expr("b4 <= 0.02 AND b5 <= 0.02")
        assert eval_rule(expr, {"b4": 0.01, "b5": 0.01}) is True

    def test_row2_single_failed_conjunct(self, specl):
        rule2 = specl.rules[1]
        assert rule2.index == 2
        pixel = {"b1": 0.1, "b2": 0.1, "b3": 0.1, "b4": 0.1, "b5": 0.3, "b7": 0.1}
        assert eval_rule(rule2.expr, pixel) is False

    def test_row5_hand_arithmetic(self, specl):
        rule5 = specl.rules[4]
        assert rule5.index == 5
        # b4/b3 = 7.5 >= 3; b2/b3 = 1.25 >= 0.8; 0.28 <= 0.30 <= 0.45
        assert eval_rule(rule5.expr, {"b2": 0.05, "b3": 0.04, "b4": 0.30}) is True

    def test_division_guard_fails_comparison_both_ways(self):
        low = parse_expr("b4/b3 <= 1.3")
        high = parse_expr("b4/b3 >= 1.3")
        assert eval_rule(low, {"b4": 0.5, "b3": 0.0}) is False
        assert eval_rule(high, {"b4": 0.5, "b3": 0.0}) is False

    def test_guard_drops_from_conjunction(self):
        expr = parse_expr("b4 <= 0.11 AND requires(b5, b5 <= 0.05)")
        assert eval_rule(expr, {"b4": 0.10}) is True
        assert eval_rule(expr, {"b4": 0.10, "b5": 0.50}) is False

    def test_guard_drops_from_disjunction(self):
        expr = parse_expr("b4 >= 0.25 OR requires(b5, b5 >= 0.30)")
        assert eval_rule(expr, {"b4": 0.10}) is False
        assert eval_rule(expr, {"b4": 0.10, "b5": 0.40}) is True

    def test_fully_guarded_rule_never_fires(self):
        expr = parse_expr("requires(b7, b7 <= 0.5)")
        assert eval_rule(expr, {"b4": 0.1}) is False

    def test_unguarded_missing_band_is_config_error(self):
        expr = parse_expr("b5 <= 0.5")
        with pytest.raises(ConfigError, match="b5"):
            eval_rule(expr, {"b4": 0.1})

    def test_vectorized_matches_scalar(self, specl, rng):
        bands = {s: rng.random(500) for s, _ in specl.declared_bands}
        for rule in specl.rules:
            mask = eval_expr(rule.expr, bands)
            for i in range(0, 500, 83):
                pixel = {s: float(v[i]) for s, v in bands.items()}
                assert bool(mask[i]) == eval_rule(rule.expr, pixel)

    def test_evaluation_is_pure(self, specl):
        pixel = {"b1": 0.2, "b2": 0.3, "b3": 0.1, "b4": 0.44, "b5": 0.2, "b7": 0.1}
        rule = specl.rules[4]
        assert eval_rule(rule.expr, pixel) == eval_rule(rule.expr, pixel)

    def test_chained_desugar_equivalent_to_expanded(self, rng):
        chained = parse_expr("0.85 <= b1/b4 <= 1.15")
        expanded = parse_expr("0.85 <= b1/b4 AND b1/b4 <= 1.15")
        for _ in range(1000):
            pixel = {"b1": float(rng.random()), "b4": float(rng.random())}
            assert eval_rule(chained, pixel) == eval_rule(expanded, pixel)


class TestSpecl:
    def test_parses_19_entries(self, specl):
        assert len(specl.rules) == 17
        assert len(specl.ruleless) == 1 and specl.ruleless[0].label == 18
        assert specl.fallback.label == 19
        assert specl.match_policy == "last-match"
        assert [e.label for e in specl.legend()] == list(range(1, 20))

    def test_colors_distinct(self, specl):
        colors = [e.color for e in specl.legend()]
        assert len(set(colors)) == len(colors)

    def test_color_text_round_trip(self, specl):
        for entry in specl.legend():
            assert parse_color(format_color(entry.color)) == entry.color
        assert format_color((74, 118, 166)) == "#4A76A6"
        assert parse_color("#4a76a6") == (74, 118, 166)
        for text in ("#zz", "#4A76A", "4A76A6", "#4A76A6 ", "#4A76A6F"):
            with pytest.raises(ValueError, match="is not #RRGGBB"):
                parse_color(text)
        for color in ((256, 0, 0), (-1, 0, 0), (1.5, 0, 0), (1, 2)):
            with pytest.raises(ConfigError, match="is not three integers in 0..255"):
                format_color(color)

    def test_round_trip_structural_identity(self, specl):
        assert parse_rules(format_rules(specl)) == specl

    def test_required_vs_optional_bands(self, specl):
        assert specl.required_bands() == frozenset({"b1", "b2", "b3", "b4", "b5"})
        assert "b7" not in specl.required_bands()
        rule15 = specl.rules[14].expr  # b5 only under its guard
        assert "b5" in referenced_bands(rule15) - required_bands(rule15)

    def test_printed_variant_rule8_unsatisfiable(self, rng):
        printed = load_specl("printed")
        corrected = load_specl("corrected")
        rule8p = printed.rules[7]
        rule8c = corrected.rules[7]
        assert rule8p.index == 8 and rule8c.index == 8
        hit = {"b2": 0.15, "b3": 0.10, "b4": 0.50, "b5": 0.20}
        assert eval_rule(rule8c.expr, hit) is True
        assert eval_rule(rule8p.expr, hit) is False
        for _ in range(200):
            pixel = {s: float(rng.random()) for s in ("b1", "b2", "b3", "b4", "b5", "b7")}
            assert eval_rule(rule8p.expr, pixel) is False

    def test_printed_variant_differs_only_in_rule8_constant(self):
        corrected = load_specl("corrected")
        rule8 = corrected.rules[7]
        swapped = tuple(
            Cmp(BandRef("b3"), ">=", Const(8.0))
            if c == Cmp(BandRef("b3"), ">=", Const(0.08)) else c
            for c in rule8.expr.children
        )
        assert swapped != rule8.expr.children
        rules = list(corrected.rules)
        rules[7] = dataclasses.replace(rule8, expr=And(swapped))
        assert load_specl("printed") == dataclasses.replace(corrected, rules=tuple(rules))

    @pytest.mark.parametrize("count", [0, 2])
    def test_printed_variant_needs_one_rule8_clause(self, monkeypatch, count):
        text = HEADER + "".join(
            f'rule {i} "r" color #000000 {{ b3 >= 0.08 }}\n' for i in range(1, count + 1)
        ) + 'rule 9 "s" color #000000 { b3 >= 0.5 }\nfallback 19 "f"\n'

        class Packaged:
            def joinpath(self, name):
                return self

            def read_text(self, encoding):
                return text

        monkeypatch.setattr(importlib.resources, "files", lambda package: Packaged())
        load_specl("corrected")
        with pytest.raises(ConfigError, match="b3 >= 0.08"):
            load_specl("printed")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            load_specl("original")


class TestFormatter:
    def test_single_rule_canonical_text(self):
        ruleset = RuleSet(
            declared_bands=(("b4", 0.83),),
            rules=(Rule(1, "water", Cmp(BandRef("b4"), "<=", Const(0.11)), (0, 0, 255)),),
            ruleless=(),
            fallback=LegendEntry(2, "rest", (0, 0, 0)),
        )
        text = format_rules(ruleset)
        assert text == format_rules(ruleset)  # deterministic
        assert 'rule 1 "water" color #0000FF' in text
        assert "b4 <= 0.11" in text
        assert parse_rules(text) == ruleset

    def test_guard_syntax_preserved(self, specl):
        text = format_rules(specl)
        assert "requires(b5, " in text and "requires(b7, " in text
        assert parse_rules(text) == specl

    def test_nested_numeric_parens(self):
        expr = Cmp(Arith("/", BandRef("b1"), Arith("/", BandRef("b2"), BandRef("b3"))),
                   "<=", Const(1.0))
        assert format_expr(expr) == "b1/(b2/b3) <= 1.0"
        expr = Cmp(Arith("/", Arith("+", BandRef("b1"), Const(0.1)), BandRef("b2")),
                   "<=", Const(1.0))
        assert format_expr(expr) == "(b1 + 0.1)/b2 <= 1.0"


def _one_rule_set(expr, **fields):
    """A rule set over b4 whose one rule has body ``expr``, with ``fields`` replaced."""
    base = dict(declared_bands=(("b4", 0.83),), rules=(Rule(1, "water", expr, (0, 0, 255)),),
                ruleless=(), fallback=LegendEntry(2, "rest", (0, 0, 0)))
    return RuleSet(**{**base, **fields})


_WATER = Cmp(BandRef("b4"), "<=", Const(0.11))


class TestModelRefusals:
    @pytest.mark.parametrize("fields, message", [
        (dict(rules=()), "a rule set needs at least one rule"),
        (dict(match_policy="any-match"), "unknown match policy 'any-match'"),
        (dict(rules=(Rule(1, "x", make_and([_WATER, Cmp(BandRef("b7"), ">", BandRef("b5"))]),
                          (0, 0, 0)),)),
         "rule 1 references undeclared bands: b5, b7"),
        (dict(ruleless=(LegendEntry(1, "c", (0, 0, 0)),)), "indices must be unique"),
        (dict(fallback=LegendEntry(1, "f", (0, 0, 0))), "indices must be unique"),
        (dict(ruleless=(LegendEntry(2, "c", (0, 0, 0)),)), "indices must be unique"),
        (dict(ruleless=(LegendEntry(3, "c", (0, 0, 0)), LegendEntry(3, "d", (0, 0, 0)))),
         "indices must be unique"),
    ], ids=["no_rules", "policy", "undeclared", "rule_class", "rule_fallback",
            "class_fallback", "class_class"])
    def test_rule_set_refusal(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            _one_rule_set(_WATER, **fields)

    @pytest.mark.parametrize("make, message", [
        (lambda: Cmp(BandRef("b4"), "==", Const(0.1)), "unknown comparison operator '=='"),
        (lambda: Arith("*", BandRef("b4"), Const(2.0)), "unknown arithmetic operator '*'"),
        (lambda: Arith("<=", BandRef("b4"), Const(2.0)), "unknown arithmetic operator '<='"),
    ], ids=["cmp", "arith", "arith_cmp_op"])
    def test_unknown_operator_refused_when_built(self, make, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize("walk", [
        lambda expr: eval_expr(expr, {"b4": np.array([0.1, 0.5])}),
        lambda expr: compile_rules(_one_rule_set(expr), {"b4"}, "last-match"),
        format_expr,
    ], ids=["eval_expr", "compile_rules", "format_expr"])
    @pytest.mark.parametrize("expr, kind, node", [
        # A band symbol left unwrapped where a numeric node belongs.
        (Cmp(Arith("/", BandRef("b4"), "b4"), "<=", Const(1.0)), "numeric", "b4"),
        # A numeric node as a whole rule body, and as an AND operand.
        (BandRef("b4"), "boolean", BandRef("b4")),
        (And((_WATER, Const(1.0))), "boolean", Const(1.0)),
    ], ids=["numeric", "boolean_body", "boolean_operand"])
    def test_walkers_refuse_a_node_of_the_wrong_kind(self, walk, expr, kind, node):
        with pytest.raises(ConfigError,
                           match=re.escape(f"not a {kind} expression node: {node!r}")):
            walk(expr)

    @pytest.mark.parametrize("expr, kind, node", [
        (Cmp(Arith("/", BandRef("b4"), "b4"), "<=", Const(1.0)), "numeric", "b4"),
        (BandRef("b4"), "boolean", BandRef("b4")),
        (And((_WATER, Const(1.0))), "boolean", Const(1.0)),
    ], ids=["numeric", "boolean_body", "boolean_operand"])
    def test_rule_set_refuses_a_node_of_the_wrong_kind(self, expr, kind, node):
        """The model refuses what every walker would, before any of them runs."""
        with pytest.raises(ConfigError,
                           match=re.escape(f"not a {kind} expression node: {node!r}")):
            _one_rule_set(expr)


# -- random rule sets round-trip -------------------------------------------


@given(rulesets())
@settings(max_examples=150, deadline=None)
def test_random_ruleset_round_trip(ruleset):
    assert parse_rules(format_rules(ruleset)) == ruleset


# -- compiled rule programs --------------------------------------------------


def _reference_labels(ruleset, planes, validity, policy):
    """The per-rule match loop: ``eval_expr`` per rule, masked label writes."""
    labels = np.full(validity.shape, ruleset.fallback.label, dtype=np.int32)
    # Later writes win, so first-match writes the rules in reverse order.
    rules = ruleset.rules if policy == "last-match" else reversed(ruleset.rules)
    for rule in rules:
        mask = eval_expr(rule.expr, planes)
        if mask is None:
            continue
        labels[np.logical_and(mask, validity)] = rule.index
    labels[~validity] = 0
    return labels


def _assert_program_matches_reference(ruleset, planes, validity):
    for policy in ("last-match", "first-match"):
        try:
            _reference_labels(ruleset, planes, validity, policy)
        except ConfigError:
            # A band read under another band's guard, with only that one
            # bound; the two may name different unbound bands.
            with pytest.raises(ConfigError, match=r"^band b\d not supplied$"):
                compile_rules(ruleset, planes, policy)
            continue
        program = compile_rules(ruleset, planes, policy)
        got = program.label(planes, validity)
        assert got.dtype == np.int32
        assert np.array_equal(got, _reference_labels(ruleset, planes, validity, policy))


#: (height, width): one pixel, one block, blocks of 65 rows over a height
#: that is no multiple of 65, and one-row blocks of rows wider than a block.
_SHAPES = ((1, 1), (4, 9), (131, 1000), (3, _BLOCK_PIXELS + 3))


@st.composite
def _planes(draw, ruleset):
    """Planes for every required band and some optional ones, ~10 % zeros."""
    required = ruleset.required_bands()
    optional = [s for s in SPECL_ORDER if s not in required]
    bound = set(required) | set(draw(st.sets(st.sampled_from(optional))) if optional else ())
    shape = draw(st.sampled_from(_SHAPES))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = {}
    for symbol in sorted(bound):
        plane = rng.random(shape).astype(dtype)
        plane[rng.random(shape) < 0.1] = 0.0
        planes[symbol] = plane
    validity = rng.random(shape) >= 0.1
    return planes, validity


class TestCompiledProgram:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_rule_reference(self, data):
        ruleset = data.draw(rulesets())
        planes, validity = data.draw(_planes(ruleset))
        _assert_program_matches_reference(ruleset, planes, validity)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_specl_matches_reference_across_blocks(self, specl, rng, dtype):
        shape = (2 * (_BLOCK_PIXELS // 700) + 5, 700)
        planes = {s: rng.random(shape).astype(dtype) for s in SPECL_ORDER}
        planes["b3"][rng.random(shape) < 0.1] = 0.0
        validity = rng.random(shape) >= 0.05
        _assert_program_matches_reference(specl, planes, validity)
        del planes["b7"]
        _assert_program_matches_reference(specl, planes, validity)

    def test_operator_chain_at_the_limit_matches_reference(self, rng):
        # MAX_NESTING operators, as many as a chain may hold, over all six bands.
        ops = rng.choice(["+", "-", "/"], size=MAX_NESTING)
        bands = rng.choice(SPECL_ORDER, size=MAX_NESTING)
        text = "b1" + "".join(f" {op} {band}" for op, band in zip(ops, bands))
        ruleset = parse_rules(HEADER + 'rule 1 "low" color #000000 { ' + text
                              + ' <= 0.5 }\nrule 2 "high" color #111111 { ' + text
                              + ' > 0.5 }\nfallback 9 "f"\n')
        planes = {s: rng.random((4, 9)) for s in SPECL_ORDER}
        validity = rng.random((4, 9)) >= 0.2
        _assert_program_matches_reference(ruleset, planes, validity)

    def test_constant_only_conjunction(self):
        expr = parse_expr("0.0 <= 0.0 AND 0.0 <= 0.0 AND 0.0 <= 0.0")
        ruleset = RuleSet(
            (("b4", 0.83),), (Rule(1, "all", expr, (0, 0, 0)),), (),
            LegendEntry(2, "f", (0, 0, 0)),
        )
        planes = {"b4": np.array([[0.1, 0.2, 0.3]])}
        validity = np.array([[True, False, True]])
        _assert_program_matches_reference(ruleset, planes, validity)
        labels = compile_rules(ruleset, planes, "last-match").label(planes, validity)
        assert labels.tolist() == [[1, 0, 1]]

    def test_same_operands_other_operator_is_another_comparison(self):
        header = "bands: b3@0.66, b4@0.83\n"
        ruleset = parse_rules(
            header
            + 'rule 1 "low" color #000000 { b4/b3 <= 1.3 }\n'
            + 'rule 2 "high" color #111111 { b4/b3 >= 1.3 AND b3 > 0.5 }\n'
            + 'fallback 3 "f"\n'
        )
        planes = {"b3": np.array([[0.4, 0.6, 0.6]]), "b4": np.array([[0.2, 0.9, 0.3]])}
        validity = np.ones((1, 3), dtype=bool)
        labels = compile_rules(ruleset, planes, "last-match").label(planes, validity)
        assert labels.tolist() == [[1, 2, 1]]
        _assert_program_matches_reference(ruleset, planes, validity)

    def test_unbound_unguarded_band_is_config_error(self):
        ruleset = parse_rules(
            HEADER + 'rule 1 "x" color #000000 { b4 <= 0.5 AND b5 <= 0.5 }\nfallback 9 "f"\n'
        )
        with pytest.raises(ConfigError, match="band b5 not supplied"):
            compile_rules(ruleset, {"b4"}, "last-match")

    def test_wholly_guarded_rule_never_fires(self):
        ruleset = parse_rules(
            HEADER
            + 'rule 1 "x" color #000000 { b4 <= 0.5 }\n'
            + 'rule 2 "y" color #000000 { requires(b7, b7 <= 0.5) OR requires(b5, b5 <= 0.5) }\n'
            + 'fallback 9 "f"\n'
        )
        program = compile_rules(ruleset, {"b4"}, "last-match")
        assert sum(func is None for func, *_ in program.steps) == 1
        planes = {"b4": np.array([[0.1, 0.9]])}
        assert program.label(planes, np.ones((1, 2), bool)).tolist() == [[1, 9]]

    def test_unknown_policy_rejected(self, specl):
        with pytest.raises(ConfigError, match="bogus"):
            compile_rules(specl, SPECL_ORDER, "bogus")

    def test_specl_computes_each_distinct_node_once(self, specl):
        seen = {"num": set(), "cmp": set(), "bool": set()}

        def walk(node):
            if isinstance(node, RequiresBand):
                return walk(node.child)
            if isinstance(node, (And, Or)):
                kind, children = "bool", node.children
            elif isinstance(node, Cmp):
                kind, children = "cmp", (node.left, node.right)
            elif isinstance(node, Arith):
                kind, children = "num", (node.left, node.right)
            else:
                return
            seen[kind].add(node)
            for child in children:
                walk(child)

        for rule in specl.rules:
            walk(rule.expr)
        assert (len(seen["num"]), len(seen["cmp"])) == (7, 47)
        program = compile_rules(specl, SPECL_ORDER, "last-match")
        expected = sum(map(len, seen.values())) + len(specl.rules)
        assert len(program.steps) == expected
