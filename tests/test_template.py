"""Template engine: parsing, expression evaluation, rendering modes."""

import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import NULL as ORACLE_NULL
from oracles import oracle_evaluate, oracle_stringify, oracle_truthy
from rslkit.template import (
    BUILTINS,
    MAX_NESTING_DEPTH,
    ExpressionTypeError,
    NULL,
    TemplateSyntaxError,
    UnresolvedTags,
    evaluate,
    parse_expression,
    parse_template,
    render,
    stringify,
    truthy,
)


# Python 3.11 (and 3.10.7) refuse to convert an int of more digits than this to or from text; 0 means no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any length")


def run(text, root, strict=True):
    return render(parse_template(text), root, strict=strict)


class TestParsing:
    def test_tag_free_template_identity(self):
        text = "no tags here, just text\nwith newlines\t and \\ symbols"
        assert run(text, {}) == text

    def test_double_brace_is_literal(self):
        assert run("a {{ b", {}) == "a { b"

    def test_unclosed_tag(self):
        with pytest.raises(TemplateSyntaxError):
            parse_template("hello {name")

    def test_unclosed_section(self):
        with pytest.raises(TemplateSyntaxError):
            parse_template("{#items}no close")

    def test_mismatched_section_close(self):
        with pytest.raises(TemplateSyntaxError):
            parse_template("{#a}x{/b}")

    def test_stray_close(self):
        with pytest.raises(TemplateSyntaxError):
            parse_template("x{/a}")

    def test_empty_tag(self):
        with pytest.raises(TemplateSyntaxError):
            parse_template("{ }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(TemplateSyntaxError) as exc:
            parse_template("abc{def")
        assert exc.value.position == 3

    @pytest.mark.parametrize(("source", "wanted"), [("(1", ")"), ("a.", "name"), ("1 ? 2", ":"), ("upper(1 2)", ",")])
    def test_missing_token_is_named(self, source, wanted):
        with pytest.raises(TemplateSyntaxError, match=rf"^at offset 0: expected {re.escape(wanted)} in expression "):
            parse_expression(source)

    def test_deep_nesting_is_a_syntax_error(self):
        # Both once overflowed the interpreter stack (RecursionError).
        with pytest.raises(TemplateSyntaxError, match="nested deeper than"):
            parse_template("{" + "(" * 2000 + "x" + ")" * 2000 + "}")
        with pytest.raises(TemplateSyntaxError, match="nested deeper than"):
            render(parse_template("{#a}" * 1500 + "x" + "{/a}" * 1500), {"a": [{"a": 1}], "x": 1}, strict=False)

    def test_sections_nest_up_to_the_bound(self):
        def nested(n):
            return "{#a}" * n + "{x}" + "{/a}" * n

        assert run(nested(MAX_NESTING_DEPTH), {"a": [{"a": 1}], "x": 1}, strict=False) == "1"
        with pytest.raises(TemplateSyntaxError):
            parse_template(nested(MAX_NESTING_DEPTH + 1))

    @pytest.mark.parametrize(
        "nested",
        [
            lambda n: "(" * n + "x" + ")" * n,
            lambda n: "!" * n + "x",
            lambda n: "1 ? " * n + "x" + " : 0" * n,
            lambda n: "x" + " + x" * n,
            lambda n: "a" + ".a" * n,
            lambda n: "a" + "[0]" * n,
        ],
        ids=["parentheses", "prefix operators", "conditionals", "operator chain", "member chain", "index chain"],
    )
    def test_expressions_nest_up_to_the_bound(self, nested):
        evaluate(parse_expression(nested(MAX_NESTING_DEPTH - 1)), [{"x": 1, "a": {"a": 1}}])
        for n in (MAX_NESTING_DEPTH, 3000):
            with pytest.raises(TemplateSyntaxError, match="nested deeper than"):
                parse_expression(nested(n))


class TestTags:
    def test_simple_substitution(self):
        assert run("Hello {name}!", {"name": "World"}) == "Hello World!"

    def test_member_and_index(self):
        root = {"a": {"b": [10, 20, 30]}}
        assert run("{a.b[1]}", root) == "20"

    def test_strict_mode_collects_unknown_tags(self):
        with pytest.raises(UnresolvedTags) as exc:
            run("{nope} and {also.nope}", {})
        assert exc.value.tags == ["nope", "also.nope"]

    def test_lenient_mode_renders_empty(self):
        assert run("[{nope}]", {}, strict=False) == "[]"

    def test_error_in_a_tag_names_the_tag_and_its_offset(self):
        with pytest.raises(ExpressionTypeError) as exc:
            run("ab{ 1/0 }", {})
        assert str(exc.value) == "tag '{1/0}' at offset 2: division by zero"


class TestSections:
    def test_list_iteration_with_index(self):
        root = {"items": [{"v": "a"}, {"v": "b"}]}
        assert run("{#items}{@index}:{v} {/items}", root) == "0:a 1:b "

    def test_scalar_items_via_this(self):
        assert run("{#items}<{this}>{/items}", {"items": [1, 2]}) == "<1><2>"

    def test_conditional_section(self):
        assert run("{#flag}yes{/flag}", {"flag": True}) == "yes"
        assert run("{#flag}yes{/flag}", {"flag": False}) == ""

    def test_inverted_section(self):
        assert run("{^items}none{/items}", {"items": []}) == "none"
        assert run("{^items}none{/items}", {"items": [1]}) == ""

    def test_dict_section_opens_scope(self):
        assert run("{#user}{name}{/user}", {"user": {"name": "Ana"}}) == "Ana"

    def test_outer_scope_still_visible(self):
        root = {"prefix": ">", "items": [{"v": 1}]}
        assert run("{#items}{prefix}{v}{/items}", root) == ">1"

    def test_error_in_a_section_names_the_section_and_its_offset(self):
        with pytest.raises(ExpressionTypeError) as exc:
            run("x{#1/0}y{/1/0}", {})
        assert str(exc.value) == "section '{#1/0}' at offset 1: division by zero"
        with pytest.raises(ExpressionTypeError) as exc:
            run("{^ 'a' - 1 }y{/'a' - 1}", {})
        assert str(exc.value) == "section '{^ 'a' - 1}' at offset 0: operator '-' needs numbers, got 'a'"
        # An error in a section's body names only the tag.
        with pytest.raises(ExpressionTypeError) as exc:
            run("{#a}{1 % 0}{/a}", {"a": [1]})
        assert str(exc.value) == "tag '{1 % 0}' at offset 4: modulo by zero"

    def test_nested_sections(self):
        root = {"rows": [{"cols": [1, 2]}, {"cols": [3]}]}
        assert run("{#rows}[{#cols}{this}{/cols}]{/rows}", root) == "[12][3]"


class TestExpressions:
    def eval(self, src, root=None):
        return evaluate(parse_expression(src), [root or {}])

    def test_arithmetic(self):
        assert self.eval("1 + 2 * 3") == 7
        assert self.eval("(1 + 2) * 3") == 9
        assert self.eval("7 % 3") == 1
        assert self.eval("-x", {"x": 4}) == -4

    def test_comparison_and_logic(self):
        assert self.eval("2 < 3 && 3 <= 3") is True
        assert self.eval("1 > 2 || 2 >= 3") is False
        assert self.eval("!0") is True

    def test_equality_with_null(self):
        assert self.eval("missing == missing") is True
        assert self.eval("x != 1", {"x": 1}) is False

    def test_ternary(self):
        assert self.eval("x > 3 ? 'many' : 'few'", {"x": 5}) == "many"
        assert self.eval("x > 3 ? 'many' : 'few'", {"x": 2}) == "few"

    def test_string_literals(self):
        assert self.eval("'a' == \"a\"") is True

    def test_builtins(self):
        assert self.eval("upper('ab')") == "AB"
        assert self.eval("lower('AB')") == "ab"
        assert self.eval("length('abc')") == 3
        assert self.eval("length(xs)", {"xs": [1, 2]}) == 2
        assert self.eval("join(xs, '-')", {"xs": ["a", "b"]}) == "a-b"
        assert self.eval("default(missing, 'd')") == "d"
        assert self.eval("default(x, 'd')", {"x": "v"}) == "v"

    def test_null_propagates_through_arithmetic(self):
        assert self.eval("missing + 1") is NULL

    def test_type_errors(self):
        with pytest.raises(ExpressionTypeError):
            self.eval("'a' + 1")
        with pytest.raises(ExpressionTypeError):
            self.eval("1 / 0")
        with pytest.raises(ExpressionTypeError):
            self.eval("length(5)")

    def test_boolean_literals(self):
        assert self.eval("true") is True
        assert self.eval("false") is False
        assert self.eval("false || x", {"x": "y"}) == "y"

    def test_negating_a_missing_value_is_missing(self):
        assert self.eval("-missing") is NULL

    def test_strings_compare_as_strings(self):
        assert self.eval("'abc' < 'abd'") is True
        assert self.eval("'b' <= 'a'") is False
        with pytest.raises(ExpressionTypeError, match="^operator '<' needs numbers, got 'a'$"):
            self.eval("'a' < 1")

    def test_subtraction_division_modulo(self):
        assert self.eval("2 - 5") == -3
        assert self.eval("7 / 2") == 3.5
        assert self.eval("7.5 % 2") == 1.5

    @pytest.mark.parametrize(
        ("source", "message"),
        [("1 / 0", "division by zero"), ("1 / 0.0", "division by zero"), ("1 % 0", "modulo by zero"), ("2.5 % 0.0", "modulo by zero")],
    )
    def test_zero_divisor(self, source, message):
        with pytest.raises(ExpressionTypeError, match=f"^{message}$"):
            self.eval(source)

    def test_wrong_argument_count(self):
        with pytest.raises(ExpressionTypeError, match=r"^upper\(\) takes 1 argument\(s\), got 2$"):
            self.eval("upper('a', 'b')")
        with pytest.raises(ExpressionTypeError, match=r"^join\(\) takes 2 argument\(s\), got 0$"):
            self.eval("join()")
        # Arguments are evaluated before the count is checked.
        with pytest.raises(ExpressionTypeError, match="^division by zero$"):
            self.eval("default(1 / 0)")

    def test_builtins_on_missing_values(self):
        assert self.eval("length(missing)") == 0
        assert self.eval("join(missing, '-')") == ""
        assert self.eval("upper(missing)") is NULL
        assert self.eval("default(missing, missing)") is NULL

    def test_join_needs_an_array(self):
        with pytest.raises(ExpressionTypeError, match=r"^join\(\) needs an array$"):
            self.eval("join('ab', '-')")

    @needs_digit_limit
    def test_too_long_a_literal_is_a_syntax_error(self):
        digits = "1" * (DIGIT_LIMIT + 1)
        with pytest.raises(TemplateSyntaxError, match=f"^at offset 7: number with {DIGIT_LIMIT + 1} digits is too long$"):
            parse_template("Total: {" + digits + " + 1}")

    def test_too_large_a_decimal_literal_is_a_syntax_error(self):
        big = "9" * 400 + ".5"
        for source in ("Total: {" + big + "}", "Total: {" + big + " - " + big + "}"):
            with pytest.raises(TemplateSyntaxError, match="^at offset 7: number with 401 digits is too large$"):
                parse_template(source)

    def test_overflow_is_a_type_error(self):
        big = "9" * 400
        # The rest of each message is Python's OverflowError text.
        with pytest.raises(ExpressionTypeError, match="^operator '/': .*too large"):
            self.eval(big + " / 1")
        with pytest.raises(ExpressionTypeError, match="^operator '\\+': .*too large"):
            self.eval(big + " + 1.5")
        with pytest.raises(ExpressionTypeError, match="^operator '%': .*too large"):
            self.eval(big + " % 1.5")
        assert self.eval(big + " * " + big) == int(big) ** 2

    def test_an_index_that_is_not_an_int_is_missing(self):
        xs = {"xs": [1, 2, 3], "inf": float("inf"), "nan": float("nan")}
        for index in ("inf", "nan", "1.9", "true", "'1'", "'one'", "xs"):
            assert self.eval(f"xs[{index}]", xs) is NULL, index
        assert self.eval("xs[4 / 2]", xs) == 3  # a whole float reads its position
        assert self.eval("'abc'[true]", xs) is NULL

    def test_negative_positions_count_from_the_end_and_strings_index_characters(self):
        xs = {"xs": [10, 20, 30]}
        assert self.eval("xs[-1]", xs) == 30
        assert self.eval("xs[-3]", xs) == 10
        assert self.eval("xs[-4]", xs) is NULL
        assert [self.eval(f"'abc'[{i}]") for i in ("1", "-1", "1.0")] == ["b", "c", "b"]
        assert self.eval("'abc'[3]") is NULL

    @needs_digit_limit
    def test_too_long_a_number_to_print_is_a_type_error(self):
        half = "9" * (DIGIT_LIMIT // 2 + 1)
        message = f"tag '{{{half} * {half}}}' at offset 1: number too long to print: more than {DIGIT_LIMIT} digits"
        with pytest.raises(ExpressionTypeError) as exc:
            run(f"={{{half} * {half}}}", {})
        assert str(exc.value) == message
        with pytest.raises(ExpressionTypeError, match="^tag '{upper"):
            run(f"{{upper({half} * {half})}}", {})

    def test_bad_expression_syntax(self):
        with pytest.raises(TemplateSyntaxError):
            parse_expression("1 +")
        with pytest.raises(TemplateSyntaxError):
            parse_expression("a b")


class TestStringify:
    def test_values(self):
        assert stringify(True) == "true"
        assert stringify(False) == "false"
        assert stringify(1.5) == "1.5"
        assert stringify(2.0) == "2"
        assert stringify(None) == ""
        assert stringify(NULL) == ""
        assert stringify([1, "a"]) == "1, a"

    def test_objects_print_as_json_and_other_values_by_str(self):
        assert stringify({"a": [1, None], "b": True}) == '{"a": [1, null], "b": true}'
        assert stringify(range(2)) == "range(0, 2)"

    def test_truthy(self):
        assert truthy([1]) and truthy("x") and truthy(1)
        assert not truthy([]) and not truthy("") and not truthy(0)
        assert not truthy(NULL) and not truthy(None)


# Pieces of the tag and expression syntax, so random text reaches deep into both parsers.
PIECES = [
    "{", "}", "{{", "{#a}", "{/a}", "{^a}", "{/b}", "(", ")", "[", "]", "!", "-", "+", "%", "?", ":", ".",
    ",", "'", '"', "\\", "a", "x", "1", "2.5", " ", "upper(", "join(", "&&", "||", "==", "<=", "@index", "\n",
]  # fmt: skip


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(PIECES), max_size=60).map("".join)))
def test_parse_template_raises_only_syntax_errors(text):
    try:
        parse_template(text)
    except TemplateSyntaxError:
        pass


# (prefix, suffix) pairs that each add one level to an expression, in the
# descent, in the tree or both.
LEVELS = [("(", ")"), ("!", ""), ("-", ""), ("1 ? ", " : 0"), ("", " + x"), ("", ".a"), ("", "[0]"), ("upper(", ")"), ("a[", "]")]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.sampled_from(LEVELS), st.integers(1, 2 * MAX_NESTING_DEPTH)), min_size=1, max_size=4),
    st.integers(0, 2 * MAX_NESTING_DEPTH),
)
def test_nesting_bound_holds_for_mixed_nesting(levels, sections):
    prefix = "".join(p * k for (p, _), k in levels)
    suffix = "".join(s * k for (_, s), k in reversed(levels))
    text = "{#a}" * sections + "{" + prefix + "x" + suffix + "}" + "{/a}" * sections
    within = sections <= MAX_NESTING_DEPTH and sum(k for _, k in levels) < MAX_NESTING_DEPTH
    beyond = sections > MAX_NESTING_DEPTH or max(k for _, k in levels) > MAX_NESTING_DEPTH
    try:
        parse_template(text)
    except TemplateSyntaxError:
        assert not within, text
    else:
        assert not beyond, text


# --- random expressions: the evaluator against oracle_evaluate, and rendering never raises a Python error

NAMES = ["a", "b", "xs", "this", "missing"]
ATOMS = NAMES + ["true", "false", "0", "1", "2", "2.5", "0.0", "''", "'a'", "'B'", "'10'"]
OPERATORS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(OPERATORS), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["!", "-"]), inner).map("".join),
        st.tuples(inner, inner, inner).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"),
        st.tuples(inner, st.sampled_from(NAMES)).map(lambda t: f"{t[0]}.{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}[{t[1]}]"),
        st.tuples(st.sampled_from(BUILTINS), st.lists(inner, max_size=3)).map(lambda t: f"{t[0]}({', '.join(t[1])})"),
    )


def expressions(atoms):
    return st.recursive(st.sampled_from(atoms), _compound, max_leaves=10)


EXPRESSIONS = expressions(ATOMS)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "a", "B", "1", "abc"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3),
    max_leaves=8,
)
SCOPES = st.lists(st.dictionaries(st.sampled_from(NAMES), JSON_VALUES, max_size=5), min_size=1, max_size=2)


# Random lists seldom meet an index in range: these index one with a bool, two floats, a string and a negative int.
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(EXPRESSIONS, SCOPES)
@example("xs[true]", [{"xs": [10, 20, 30]}])
@example("xs[1.0]", [{"xs": [10, 20, 30]}])
@example("xs[1.5]", [{"xs": [10, 20, 30]}])
@example("xs['1']", [{"xs": [10, 20, 30]}])
@example("xs[-1]", [{"xs": [10, 20, 30]}])
def test_evaluate_agrees_with_the_oracle(source, scopes):
    try:
        expr = parse_expression(source)
    except TemplateSyntaxError:
        assume(False)
    try:
        expected = oracle_evaluate(expr, scopes)
    except ExpressionTypeError as exc:
        with pytest.raises(ExpressionTypeError) as got:
            evaluate(expr, scopes)
        assert str(got.value) == str(exc)
        return
    value = evaluate(expr, scopes)
    assert (value is NULL) == (expected is ORACLE_NULL)
    if value is not NULL:
        assert repr(value) == repr(expected)
    assert stringify(value) == oracle_stringify(expected)
    assert truthy(value) == oracle_truthy(expected)


# Numbers past what an int or float can carry: a literal too long to read, sums and
# quotients that overflow a float, a product too long to print, an infinite index.
HUGE = ["1" * 5000, "9" * 400, "9" * 2200, "9" * 400 + ".0", "1.5"]
TAGS = expressions(ATOMS + HUGE).map(lambda source: "{" + source + "}")
RENDER_PIECES = st.sampled_from(PIECES + ["*", "/", "length(", "default("])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.text(),
        st.lists(RENDER_PIECES, max_size=60).map("".join),
        st.lists(RENDER_PIECES | TAGS, max_size=8).map("".join),
    )
)
def test_a_template_that_parses_renders_or_raises_a_template_error(text):
    try:
        tpl = parse_template(text)
    except TemplateSyntaxError:
        return
    for strict in (True, False):
        try:
            render(tpl, {"a": [{"a": 1, "xs": [1, "x"]}], "x": 2}, strict=strict)
        except (ExpressionTypeError, UnresolvedTags):
            pass
