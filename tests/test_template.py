"""Template engine: parsing, expression evaluation, rendering modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslkit.template import (
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
