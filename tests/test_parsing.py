"""The one-pass derivation reader and the stack-based formula parser,
against the token-list and recursive-descent parsers they replaced
(`reference_parsers.py`), on deep inputs, and by the work they do."""

import random
import sys
from pathlib import Path

import pytest

import lamping.derivations
import reference_parsers
from lamping.derivations import (DerivationSyntaxError, parse_derivation,
                                 show_derivation)
from lamping.formulas import (Atom, Bang, FormulaSyntaxError, Lolli,
                              parse_formula, show_formula)
from test_randomized import Gen, LalGen

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_TEXTS = {p.name: p.read_text() for p in sorted(CORPUS.iterdir())}


def _outcome(parse, text):
    """What a parser makes of text: its result, or its error message."""
    try:
        return "ok", parse(text)
    except (DerivationSyntaxError, FormulaSyntaxError) as e:
        return type(e).__name__, str(e)


def _mutants(text, rng, count):
    """Single-character substitutions, deletions and insertions, drawn
    from the characters of the text."""
    alphabet = sorted(set(text))
    for _ in range(count):
        i, op, c = rng.randrange(len(text)), rng.choice("sdi"), rng.choice(alphabet)
        yield text[:i] + ("" if op == "d" else c) + text[i + (op != "i"):]


def _draw_texts():
    """Seeded `Gen` and `LalGen` draws, printed plain and annotated."""
    for seed in range(30):
        for gen, mode in ((Gen, "eal"), (LalGen, "lal")):
            d = gen(seed).grow()
            yield f"{mode}{seed}", show_derivation(d)
            yield f"{mode}{seed}/annotated", show_derivation(d, judgements=True, mode=mode)


def test_reader_matches_the_token_parser():
    """On the corpus, on printed draws and on 50 seeded mutants of each
    corpus file and of each annotated draw, both readers give equal
    derivations or fail with the same message."""
    rng = random.Random(0)
    inputs = list(CORPUS_TEXTS.items()) + list(_draw_texts())
    mutants = [(f"{name}~{i}", m) for name, text in inputs
               if name in CORPUS_TEXTS or name.endswith("/annotated")
               for i, m in enumerate(_mutants(text, rng, 50))]
    accepted = 0
    for name, text in inputs + mutants:
        expected = _outcome(reference_parsers.parse_derivation, text)
        assert _outcome(parse_derivation, text) == expected, name
        accepted += expected[0] == "ok"
    assert len(mutants) >= 1000
    assert len(inputs) < accepted < len(inputs) + len(mutants)  # both kinds occur


@pytest.mark.parametrize("text", [
    "", "  \n", ")", "x", "(", "(A", "(Nonsense)", "( {var x})", "(A {", "(A {}",
    "(A { }", "(A {var}", "(A {var x y})", "(A {var x(})", "(A {( x} {var x} {ty a})",
    "(A {ty}", "(A {var x} {ty a  #b})", "(A {var x} {ty\n(a -o[b)})",
    "(A {var x} {ty a} [", "(A {var x} {ty a} [x] [y])", "(A {var x} [|- x : a] {ty a})",
    "(A {var x} {ty a}) (A {var y} {ty a})", "(A {var x} {ty a}))", "(A {var x} {ty a}) ]",
    "(RLolli {var x} (A {var x} {ty a}) (A {var y} {ty a}))", "(RLolli {var x} {ty a}",
    "(PPara {bang} (A {var x} {ty a}))", "(PPara {bang x [y} (A {var x} {ty a}))",
    "(LForall {var f} {ty forall t.t} {wit forall} (A {var f} {ty a}))",
])
def test_reader_matches_the_token_parser_on_malformed_shapes(text):
    assert (_outcome(parse_derivation, text)
            == _outcome(reference_parsers.parse_derivation, text))


def test_formula_parser_matches_the_recursive_parser():
    """Every formula field of the corpus and 40 seeded mutants of each, and
    formulas that the grammar's corners decide: same formula or same
    message."""
    rng = random.Random(0)
    fields = sorted({show_formula(v) for text in CORPUS_TEXTS.values()
                     for v in _formula_fields(parse_derivation(text))})
    corners = ["forall mu.mu", "forall forall.forall", "mux", "forallx.x", "!forall a.a",
               "a -o", "-o a", "(a", "a)", "a b", "a # b", "a\n  #b", "forall a a",
               "forall .a", "mu a.", "!$!(mu t.$t -o !t)", "((a)) -o (b -o c)", "a-ob", "é"]
    texts = fields + corners + [m for f in fields for m in _mutants(f, rng, 40)]
    for text in texts:
        assert (_outcome(parse_formula, text)
                == _outcome(reference_parsers.parse_formula, text)), text


def _formula_fields(d):
    todo = [d]
    while todo:
        n = todo.pop()
        todo.extend(n.premises)
        yield from (v for k, v in n.data if k in ("ty", "wit"))


def test_formulas_parse_at_the_default_recursion_limit():
    """3000 `!`, a 3000-deep right-nested `-o` chain, and 1500 nested
    parentheses, around an atom and around the left of `-o`."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        bangs = parse_formula("!" * 3000 + "a")
        chain = parse_formula(" -o ".join(f"a{i}" for i in range(3001)))
        parens = parse_formula("(" * 1500 + "a" + ")" * 1500)
        left = parse_formula("(" * 1500 + "a" + " -o b)" * 1500)
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(3000):
        assert isinstance(bangs, Bang)
        bangs = bangs.inner
    assert bangs == Atom("a")
    for i in range(3000):
        assert isinstance(chain, Lolli) and chain.left == Atom(f"a{i}")
        chain = chain.right
    assert chain == Atom("a3000")
    assert parens == Atom("a")
    for _ in range(1500):
        assert isinstance(left, Lolli) and left.right == Atom("b")
        left = left.left
    assert left == Atom("a")


def test_each_distinct_formula_text_is_parsed_once_per_file(monkeypatch):
    """Within one file, a formula text is parsed once and its formula
    shared by every field that holds it; across files nothing is kept."""
    calls = []

    def counting(text):
        calls.append(text)
        return parse_formula(text)

    monkeypatch.setattr(lamping.derivations, "parse_formula", counting)
    texts = list(CORPUS_TEXTS.values()) + [t for name, t in _draw_texts()
                                           if not name.endswith("/annotated")]
    fields = shared = 0
    for text in texts:
        calls.clear()
        d = parse_derivation(text)
        assert show_derivation(d) == text.rstrip("\n")  # each field as printed
        formulas = list(_formula_fields(d))
        assert sorted(calls) == sorted({show_formula(f) for f in formulas})
        assert len({id(f) for f in formulas}) == len(calls)
        fields += len(formulas)
        shared += len(formulas) - len(calls)
    calls.clear()
    parse_derivation(texts[0])
    parse_derivation(texts[0])
    assert len(calls) == 2 * len(set(calls))
    assert shared > fields // 4
