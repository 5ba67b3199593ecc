"""The re-lex and re-parse of an edited text: `fix` reads again only what its edits touched.

`fix` checks, applies its fixes, and checks the fixed text again. The
first lex is kept in a `Lex`. No token crosses a line, so `relex` lexes
only the lines around each edit, with the lexer's own `_lex`, and copies
every other token. The first parse's declarations are kept with the lex,
and `Kept` hands the second parse each one whose tokens were all copied.
Only `fix` loads this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import add, attrgetter, itemgetter

from .lexer import Tokens, _lex
from .model import KIND_TABLE, DataEntity, Diagnostic, IncludeDecl, LinguisticLanguageDecl


class Lex:
    """A file's lex kept from one parse to the next, so that lexing its edited text reads only the lines it changed.

    `tokenize(source, file, lex)` with no `lex.edits` lexes all of `source`
    and keeps the result in `lex.tokens`. The owner then sets `lex.edits`
    to the non-overlapping `TextEdit`s, in `model.edit_order`, that turn
    that text into a new one. `tokenize(new, file, lex)` re-lexes only
    around them (see `relex`) and takes the kept tokens out of `lex`, so
    they are freed before the new ones are parsed.

    A parse whose lex is kept keeps its declarations too, in `decls`: one
    (first token, next token, result, diagnostics) per pass of
    `parser._Parser.parse_document`'s loop. The next token is the one
    that ended the declaration, after any recovery skip; the result is
    the element, the include or None. A re-lex records in `runs` each
    run of old tokens it copied at one offset delta: (new index of its
    first token, old index of it, old index past its last, delta). The
    parse of the re-lexed text takes both out of `lex` (see `Kept`).
    """

    __slots__ = ("tokens", "edits", "decls", "runs")

    def __init__(self):
        self.tokens: Tokens | None = None
        self.edits = None
        self.decls: list | None = None
        self.runs: list | None = None


def relex(source: str, pos: int, previous: Tokens, edits, kinds: list, texts: list, starts, ends) -> list:
    """Append the tokens of `source` from `pos`, lexing only the lines that the `edits` made from `previous`'s text.

    No token crosses a "\\n". So a window runs from the start of the line
    an edit starts on to the end of the line its new text ends on, taking
    in each later edit that starts before that end, and `lexer._lex` lexes
    it. The old tokens outside the windows lie on lines no edit touched:
    they are copied, their offsets shifted by `delta`, the length the
    edits before them added. This is the incremental lexing of Wagner and
    Graham, "Efficient and Flexible Incremental Parsing" (TOPLAS 1998),
    with the line as its unit, so no resynchronising scan is needed.

    Returns the runs of copied tokens, as `Lex.runs` keeps them.
    """
    runs = []
    old_starts = previous.starts
    last = len(old_starts) - 1  # the old "end" token, which is never copied
    n, count = len(source), len(edits)
    done = delta = i = 0  # the old tokens before `done` are copied or dropped, the edits before `i` taken in
    while i < count:
        lo = source.rfind("\n", 0, edits[i].span.offset + delta) + 1
        k = bisect_left(old_starts, lo - delta, done, last)
        if k > done:
            runs.append((len(kinds), done, k, delta))
            _copy(previous, done, k, delta, kinds, texts, starts, ends)
        while True:  # take in each edit that starts before the window's end
            span = edits[i].span
            delta += len(edits[i].new_text) - span.length
            hi = source.find("\n", span.end_offset + delta) % (n + 1)  # -1, none found, is the end
            i += 1
            if i == count or edits[i].span.offset + delta > hi:
                break
        _lex(source, max(lo, pos), hi, kinds, texts, starts, ends)
        done = bisect_left(old_starts, hi - delta, k, last)
    # The new "end" token, which `tokenize` appends, is the old one shifted by `delta`.
    runs.append((len(kinds), done, last + 1, delta))
    _copy(previous, done, last, delta, kinds, texts, starts, ends)
    return runs


def _copy(previous: Tokens, lo: int, hi: int, delta: int, kinds: list, texts: list, starts, ends) -> None:
    """Append old tokens lo..hi-1, their offsets shifted by `delta`; `starts` and `ends` are `array("q")`s.

    The shifted offsets go through a list: `array.fromlist` takes one
    faster than `array.extend` takes the `map`.
    """
    kinds += previous.kinds[lo:hi]
    texts += previous.texts[lo:hi]
    starts.fromlist(list(map(add, previous.starts[lo:hi], repeat(delta))))
    ends.fromlist(list(map(add, previous.ends[lo:hi], repeat(delta))))


class Kept:
    """The first parse's declarations that the parse of the edited text keeps.

    `parser._Parser` keeps no state from one declaration to the next but
    `pos`, its diagnostics and the model's `language_decl`, and it reads
    no token past the one at `pos`. So a declaration's result and
    diagnostics are a function of the tokens from its first one through
    the one that ended it, and a declaration whose tokens were all copied
    in one run of the re-lex parses as it did before, at offsets shifted
    by that run's delta. Such a declaration is kept, but for a
    LinguisticLanguage element: whether it is a duplicate (RSL-S005, after
    which recovery skips on) depends on the declarations before it.
    """

    __slots__ = ("decls", "runs", "lines")

    def __init__(self, lex: Lex, lines):
        self.decls, self.runs, self.lines = lex.decls, lex.runs, lines
        lex.decls = lex.runs = None

    def take(self, pos: int):
        """(elements, includes, diagnostics, next token) of the declarations kept from token `pos` on, or None.

        They are the old declaration that starts at `pos`, if it is kept,
        and each one after it that is kept too. Their diagnostics are
        made anew, and the spans of their elements, attributes and
        includes are shifted in place and moved to the new text's
        `LineTable`. A span whose line and column were read holds no
        table (see `model.SourceSpan`), and it forgets them.
        """
        runs, decls = self.runs, self.decls
        r = bisect_right(runs, pos, key=_FIRST) - 1
        if r < 0:
            return None
        new_lo, lo, hi, delta = runs[r]
        first = at = pos - new_lo + lo  # the old index of token `pos`
        i = bisect_left(decls, at, key=_FIRST)
        if i == len(decls) or decls[i][0] != at:
            return None
        elements, includes, diagnostics = [], [], []
        lines = self.lines
        span = lines.span
        for _, end, decl, diags in islice(decls, i, None):
            if end >= hi or type(decl) is LinguisticLanguageDecl:
                break
            at = end
            if diags:  # before the element's spans move: a diagnostic may hold one of them
                diagnostics += [
                    Diagnostic(d.severity, d.code, d.message, span(d.span.offset + delta, d.span.end_offset + delta))
                    for d in diags
                ]
            if decl is None:
                continue
            spans = _SPANS[type(decl)](decl)
            if type(decl) is IncludeDecl:
                includes.append(decl)
            else:
                elements.append(decl)
                if type(decl) is DataEntity:
                    spans += tuple(map(_SPAN, decl.attributes))
            for old in spans:
                if old is not None:
                    if old._lines is None:  # the old text's line and column
                        del old.start_line, old.start_col, old.end_line, old.end_col
                    old.offset += delta
                    old._lines = lines
        if at == first:
            return None
        return elements, includes, diagnostics, at - lo + new_lo


_FIRST = itemgetter(0)
_SPAN = attrgetter("span")
# Each parsed record class -> a getter of the tuple of its span fields.
_SPANS = {
    row["class"]: attrgetter(*(f for f in row["class"]._fields if f.endswith("span"))) for row in KIND_TABLE.values()
}
_SPANS[IncludeDecl] = lambda include: (include.span,)
