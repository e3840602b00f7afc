"""Command-line interface: parse presentations, dispatch, emit text or JSON.

Grammar (the ``ring`` keyword is optional, so formatted output re-parses):

    ring <FIELD>[v1,...,vn] / (g1, ..., gc)      FIELD ::= Q | F<p>

Polynomials use infix ``^ * + -`` with integer (or ``a/b`` rational)
coefficients.  Modules are entered as cyclic quotients ``R/(g1,...)``,
the shorthands ``R`` and ``k``, or a bracketed relation matrix
``[[x,y],[0,x]]`` (rows = module generators, columns = relations).

Exit codes: 0 success, 1 mathematical precondition failure, 2 parse
error, 3 budget exhaustion.  Each command runs in one budget scope, so
``--max-degree`` / ``--max-steps`` bound the command as a whole; they and
the corpus seed ``--seed`` fall back to the environment variables
SINGULANT_MAX_DEGREE, SINGULANT_MAX_STEPS, SINGULANT_SEED.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (
    Budget,
    BudgetExceededError,
    ParseError,
    PreconditionError,
    StructuralError,
    UnsupportedInputError,
    budget_scope,
    check_degree,
)
from .homalg import (
    annihilates_ext,
    ext_module,
    koszul_cohomology,
    module_k_dimension,
    stable_annihilation_test,
)
from .ideal_ops import (
    IdealHandle,
    RingPresentation,
    height,
    is_equidimensional,
    loewy_length,
    minimal_generators,
    minimal_primes_monomial,
    ring_dimension,
    socle,
)
from .jacobian import is_isolated_singularity, jacobian_ideal
from .poly import GREVLEX, LEX, QQ, PrimeField
from .report import (
    build_report,
    format_ledger,
    generation_time_bound,
    ledger_passed,
    report_json,
    ring_depth,
    verify_paper_examples,
)
from .resolve import FinitelyPresentedModule, free_resolution

COMMANDS = (
    "jac", "dim", "height", "depth", "socle", "loewy", "nu", "equidim",
    "minimal-primes", "isolated", "resolve", "ext", "ext-ann", "koszul",
    "stable-ann", "bound", "report", "verify-paper",
)

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


# ---------------------------------------------------------------------------
# tokenizer / parser

_SYMBOLS = set("^*+-()[]/,")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


# deepest nesting of parentheses and unary minus signs the parser accepts;
# each level costs a few Python frames, so this stays well below the
# interpreter's recursion limit
_MAX_NESTING = 100


def _int(digits: str, tok) -> int:
    """The value of a digit string, as a ParseError at tok when Python
    refuses to convert it (past sys.get_int_max_str_digits())."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", tok[2], tok[3]) from None


class _Parser:
    """Recursive-descent parser over one input string."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None):
        tok = self.advance()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "EOF" else repr(tok[1])
            raise ParseError(f"expected {what or kind}, found {found}",
                             tok[2], tok[3])
        return tok

    def fail(self, message: str):
        tok = self.peek()
        found = "end of input" if tok[0] == "EOF" else repr(tok[1])
        raise ParseError(f"{message}, found {found}", tok[2], tok[3])

    # -- polynomial expressions ------------------------------------------------

    def poly(self, ring):
        """poly := term (('+'|'-') term)*"""
        value = self._term(ring)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self._term(ring)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, ring):
        value = self._factor(ring)
        while self.peek()[0] == "*":
            self.advance()
            value = value * self._factor(ring)
        return value

    def _factor(self, ring):
        base = self._base(ring)
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("INT", "exponent")
            exp = _int(tok[1], tok)
            # the degree budget bounds the expansion before it is computed
            check_degree(base.total_degree() * exp)
            return base ** exp
        return base

    def _nested(self, parse, tok):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels",
                             tok[2], tok[3])
        value = parse()
        self.depth -= 1
        return value

    def _base(self, ring):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return self._nested(lambda: -self._factor(ring), tok)
        if tok[0] == "INT":
            self.advance()
            value = _int(tok[1], tok)
            # rational coefficient a/b, so formatted output re-parses
            if self.peek()[0] == "/" and self.peek(1)[0] == "INT":
                self.advance()
                dtok = self.advance()
                den = _int(dtok[1], dtok)
                if den == 0:
                    raise ParseError("zero denominator", tok[2], tok[3])
                try:
                    return ring.poly_ring.constant(Fraction(value, den))
                except StructuralError as exc:
                    raise ParseError(str(exc), tok[2], tok[3])
            return ring.poly_ring.constant(value)
        if tok[0] == "IDENT":
            self.advance()
            try:
                return ring.variable_named(tok[1])
            except (StructuralError, KeyError):
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
        if tok[0] == "(":
            self.advance()
            value = self._nested(lambda: self.poly(ring), tok)
            self.expect(")", "')'")
            return value
        self.fail("expected a polynomial")

    def poly_list(self, ring):
        """'(' poly (',' poly)* ')' — an empty '()' gives no generators."""
        self.expect("(", "'('")
        polys = []
        if self.peek()[0] != ")":
            polys.append(self.poly(ring))
            while self.peek()[0] == ",":
                self.advance()
                polys.append(self.poly(ring))
        self.expect(")", "')'")
        return polys


def parse_ring(text: str, *, order=GREVLEX) -> RingPresentation:
    """`ring <FIELD>[vars] / (gens)` — keyword and quotient part optional."""
    parser = _Parser(text)
    tok = parser.peek()
    if tok[0] == "IDENT" and tok[1] == "ring":
        parser.advance()
    ftok = parser.expect("IDENT", "field (Q or F<p>)")
    fld = _field_from_token(ftok)
    parser.expect("[", "'['")
    names = [parser.expect("IDENT", "variable name")[1]]
    positions = {names[0]: (ftok[2], ftok[3])}
    while parser.peek()[0] == ",":
        parser.advance()
        tok = parser.expect("IDENT", "variable name")
        if tok[1] in positions:
            raise ParseError(f"duplicate variable name {tok[1]!r}",
                             tok[2], tok[3])
        positions[tok[1]] = (tok[2], tok[3])
        names.append(tok[1])
    parser.expect("]", "']'")
    ambient = RingPresentation(fld, names, (), order)
    gens = []
    if parser.peek()[0] == "/":
        parser.advance()
        start = parser.peek()
        for g in parser.poly_list(ambient):
            if g.is_zero():
                raise ParseError("zero defining generator rejected",
                                 start[2], start[3])
            gens.append(g)
    parser.expect("EOF", "end of input")
    return RingPresentation(fld, names, gens, order)


def _field_from_token(tok):
    name = tok[1]
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        try:
            return PrimeField(_int(name[1:], tok))
        except StructuralError as exc:
            raise ParseError(str(exc), tok[2], tok[3])
    raise ParseError(f"expected field Q or F<p>, found {name!r}",
                     tok[2], tok[3])


def parse_element(text: str, ring: RingPresentation):
    parser = _Parser(text)
    value = parser.poly(ring)
    parser.expect("EOF", "end of input")
    return value


def parse_ideal(text: str, ring: RingPresentation) -> IdealHandle:
    parser = _Parser(text)
    gens = parser.poly_list(ring)
    parser.expect("EOF", "end of input")
    return IdealHandle(ring, gens)


def parse_module(text: str, ring: RingPresentation) -> FinitelyPresentedModule:
    """``R/(gens)``, ``R``, ``k``, or a relation matrix ``[[...],[...]]``."""
    parser = _Parser(text)
    tok = parser.peek()
    if tok[0] == "IDENT" and tok[1] == "R":
        parser.advance()
        if parser.peek()[0] == "/":
            parser.advance()
            gens = parser.poly_list(ring)
            parser.expect("EOF", "end of input")
            return FinitelyPresentedModule.cyclic(ring, gens)
        parser.expect("EOF", "end of input")
        return FinitelyPresentedModule.cyclic(ring, [])
    if tok[0] == "IDENT" and tok[1] == "k":
        parser.advance()
        parser.expect("EOF", "end of input")
        return FinitelyPresentedModule.residue_field(ring)
    if tok[0] == "[":
        parser.advance()
        rows = [_matrix_row(parser, ring)]
        while parser.peek()[0] == ",":
            parser.advance()
            rows.append(_matrix_row(parser, ring))
        closing = parser.expect("]", "']'")
        parser.expect("EOF", "end of input")
        if len({len(row) for row in rows}) > 1:
            raise ParseError("ragged relation matrix", closing[2], closing[3])
        return FinitelyPresentedModule(ring, len(rows), rows)
    parser.fail("expected a module (R/(...), R, k, or [[...],[...]])")


def _matrix_row(parser: _Parser, ring):
    parser.expect("[", "'['")
    row = [parser.poly(ring)]
    while parser.peek()[0] == ",":
        parser.advance()
        row.append(parser.poly(ring))
    parser.expect("]", "']'")
    return row


# ---------------------------------------------------------------------------
# serialization helpers


def _poly_json(ring, p):
    """Coefficient/exponent-list form: [[coeff, [e1..en]], ...]."""
    return [[str(c), list(m.exps)] for m, c in p.terms]


def _matrix_json(ring, rows):
    return [[_poly_json(ring, entry) for entry in row] for row in rows]


def _resolution_json(res):
    ring = res.ring
    pd = res.projective_dimension()
    return {
        "ranks": list(res.ranks),
        "minimal": res.minimal,
        "complete": res.complete,
        "periodic": list(res.periodic) if res.periodic is not None else None,
        "projective_dimension": pd if isinstance(pd, int) else (
            "infinite" if pd is not None else None),
        "differentials": [_matrix_json(ring, d) for d in res.differentials],
    }


def _verdict_text(value) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def _format_matrix(ring, rows) -> str:
    cells = [[ring.format_element(e) for e in row] for row in rows]
    if not cells:
        return "  (zero map)"
    width = max(len(c) for row in cells for c in row)
    return "\n".join(
        "  [" + ", ".join(c.rjust(width) for c in row) + "]" for row in cells
    )


# ---------------------------------------------------------------------------
# command execution


def _session(args):
    """Resolve budget/seed/order from flags, then environment, then defaults."""
    values = {}
    for key in ("max_degree", "max_steps", "seed"):
        value, env = getattr(args, key), f"SINGULANT_{key.upper()}"
        if value is None and env in os.environ:
            try:
                value = int(os.environ[env])
            except ValueError:
                raise ParseError(f"bad integer {os.environ[env]!r} for {env}")
        if value is not None:
            values[key] = value
    seed = values.pop("seed", 0)
    budget = Budget(**values)
    if budget.max_degree <= 0 or budget.max_steps <= 0:
        raise ParseError("budgets must be positive")
    return budget, seed, _ORDERS[args.order]


def _execute(args):
    """Run one command in one budget scope: (exit_code, text, json_document)."""
    budget, seed, order = _session(args)
    with budget_scope(budget):
        if args.command == "verify-paper":
            fld = _field_from_token(("IDENT", args.field, 1, 1))
            entries = verify_paper_examples(fld)
            code = 0 if ledger_passed(entries) else 1
            doc = {"command": "verify-paper",
                   "result": [{"name": e.name, "status": e.status,
                               "detail": e.detail} for e in entries]}
            return code, format_ledger(entries), doc

        ring = parse_ring(args.ring, order=order)
        text, result = _HANDLERS[args.command](args, ring, ring.format_element, seed)
    if args.command == "report":
        return 0, text, result
    return 0, text, {"command": args.command, "result": result}


def _cmd_jac(args, ring, fmt, seed):
    jac = jacobian_ideal(ring)
    gens = [fmt(g) for g in jac.reduced_generators()]
    return jac.format(), {"gens": gens}


def _cmd_dim(args, ring, fmt, seed):
    d = ring_dimension(ring)
    return str(d), d


def _cmd_height(args, ring, fmt, seed):
    if args.ideal is not None:
        handle = parse_ideal(args.ideal, ring)
    else:
        handle = ring.defining_ideal()
    h = height(handle)
    return str(h), h


def _cmd_depth(args, ring, fmt, seed):
    d = ring_depth(ring)
    return str(d), d


def _cmd_socle(args, ring, fmt, seed):
    soc = socle(ring)
    return soc.format(), {"gens": [fmt(g) for g in soc.reduced_generators()]}


def _require_ideal(args, ring) -> IdealHandle:
    if args.ideal is None:
        raise ParseError(f"{args.command} requires --ideal \"(g1, ...)\"")
    return parse_ideal(args.ideal, ring)


def _cmd_loewy(args, ring, fmt, seed):
    n = loewy_length(ring, _require_ideal(args, ring))
    return str(n), n


def _cmd_nu(args, ring, fmt, seed):
    n = minimal_generators(_require_ideal(args, ring))
    return str(n), n


def _cmd_equidim(args, ring, fmt, seed):
    verdict = is_equidimensional(ring)
    return _verdict_text(verdict), verdict


def _cmd_minimal_primes(args, ring, fmt, seed):
    primes = minimal_primes_monomial(ring.defining_ideal())
    result = []
    lines = []
    for p in primes:
        gens = [fmt(v) for v in p.generators]
        d = ring.nvars - len(gens)
        result.append({"gens": gens, "dim": d})
        lines.append(f"{p.format()}  dim {d}")
    return "\n".join(lines) if lines else "(0)", result


def _cmd_isolated(args, ring, fmt, seed):
    iso = is_isolated_singularity(ring)
    lines = [_verdict_text(iso.verdict)]
    witnesses = [[fmt(v) for v in p.generators] for p in iso.witness_primes]
    for names in witnesses:
        lines.append(f"witness prime: ({', '.join(names)})")
    result = {"verdict": iso.verdict, "regular": iso.regular,
              "witness_primes": witnesses}
    return "\n".join(lines), result


def _cmd_resolve(args, ring, fmt, seed):
    module = parse_module(args.module, ring)
    res = free_resolution(module, args.length)
    pd = res.projective_dimension()
    lines = [
        "ranks: " + " ".join(str(r) for r in res.ranks),
        f"minimal: {'true' if res.minimal else 'false'}",
        "projective dimension: " + (
            str(pd) if isinstance(pd, int)
            else ("infinite" if pd is not None else f">= {res.length}")),
    ]
    for i in range(1, len(res.ranks)):
        lines.append(f"d_{i}:")
        lines.append(_format_matrix(ring, res.differential(i)))
    return "\n".join(lines), _resolution_json(res)


def _cmd_ext(args, ring, fmt, seed):
    M = parse_module(args.module, ring)
    N = parse_module(args.target, ring)
    pres = ext_module(M, N, args.degree).to_module()
    dim = module_k_dimension(pres)
    text = (f"Ext^{args.degree}: presentation rank {pres.rank}, "
            f"{pres.n_relations} relations, k-dimension "
            + (str(dim) if dim is not None else "unknown"))
    result = {"degree": args.degree, "rank": pres.rank,
              "relations": pres.n_relations, "k_dimension": dim}
    return text, result


def _require_element(args, ring):
    if args.element is None:
        raise ParseError(f"{args.command} requires --element \"r\"")
    return parse_element(args.element, ring)


def _cmd_ext_ann(args, ring, fmt, seed):
    r = _require_element(args, ring)
    M = parse_module(args.module, ring)
    N = parse_module(args.target, ring)
    ok = annihilates_ext(r, M, N, args.degree)
    return "true" if ok else "false", ok


def _cmd_koszul(args, ring, fmt, seed):
    if args.sequence is None:
        raise ParseError("koszul requires --sequence \"(f1, ...)\"")
    sequence = parse_ideal(args.sequence, ring).generators
    module = parse_module(args.module, ring)
    h = koszul_cohomology(list(sequence), module, args.degree)
    zero = h.is_zero_presentation()
    text = (f"H^{args.degree}: zero" if zero else
            f"H^{args.degree}: presentation rank {h.rank}, "
            f"{h.n_relations} relations")
    result = {"degree": args.degree, "rank": h.rank,
              "relations": h.n_relations, "zero": zero}
    return text, result


def _cmd_stable_ann(args, ring, fmt, seed):
    r = _require_element(args, ring)
    module = parse_module(args.module, ring)
    ok = stable_annihilation_test(r, module)
    return "true" if ok else "false", ok


def _cmd_bound(args, ring, fmt, seed):
    if args.ideal is not None:
        ideal = parse_ideal(args.ideal, ring)
    else:
        ideal = jacobian_ideal(ring)
    result = generation_time_bound(
        ring, ideal, assume_annihilates=args.assume_annihilates, seed=seed
    ).payload()
    lines = [f"I = ({', '.join(result['I_gens'])})"]
    for key in ("nu", "loewy", "depth", "generation_time", "dim_sg_bound"):
        lines.append(f"{key} = {result[key]}")
    if result["assume_annihilates"]:
        lines.append("assume_annihilates = true")
    return "\n".join(lines), result


def _cmd_report(args, ring, fmt, seed):
    bound_ideal = parse_ideal(args.ideal, ring) if args.ideal is not None else None
    doc = build_report(ring, bound_ideal=bound_ideal,
                       assume_annihilates=args.assume_annihilates, seed=seed)
    return report_json(doc).rstrip("\n"), doc


_HANDLERS = {
    "jac": _cmd_jac,
    "dim": _cmd_dim,
    "height": _cmd_height,
    "depth": _cmd_depth,
    "socle": _cmd_socle,
    "loewy": _cmd_loewy,
    "nu": _cmd_nu,
    "equidim": _cmd_equidim,
    "minimal-primes": _cmd_minimal_primes,
    "isolated": _cmd_isolated,
    "resolve": _cmd_resolve,
    "ext": _cmd_ext,
    "ext-ann": _cmd_ext_ann,
    "koszul": _cmd_koszul,
    "stable-ann": _cmd_stable_ann,
    "bound": _cmd_bound,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_argparser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--max-degree", type=int, default=None,
                        help="total-degree budget (env SINGULANT_MAX_DEGREE)")
    common.add_argument("--max-steps", type=int, default=None,
                        help="reduction-step budget of the whole command; the "
                             "report's certification sweep also caps each "
                             "guarded step at 20,000 (env SINGULANT_MAX_STEPS)")
    common.add_argument("--seed", type=int, default=None,
                        help="corpus seed (env SINGULANT_SEED)")
    common.add_argument("--order", choices=sorted(_ORDERS), default="grevlex",
                        help="monomial order")

    top = argparse.ArgumentParser(
        prog="singulant",
        description="singularity invariants of finitely presented rings",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_, ring=True, module=False, target=False, **flags):
        p = sub.add_parser(name, parents=[common], help=help_)
        if ring:
            p.add_argument("ring", help='e.g. "ring Q[x,y] / (x^2, x*y)"')
        if module:
            p.add_argument("module", help='module: R/(g1,...), R, k, or [[...]]')
        if target:
            p.add_argument("target", help="second module, same syntax")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        return p

    ideal_flag = {"--ideal": {"default": None, "metavar": "(g1,...)",
                              "help": "ideal generators"}}
    element_flag = {"--element": {"default": None, "metavar": "r",
                                  "help": "ring element"}}
    degree_flag = lambda d: {"--degree": {"type": int, "default": d,
                                          "help": f"cohomological degree (default {d})"}}

    cmd("jac", "Jacobian ideal of the presentation")
    cmd("dim", "Krull dimension")
    cmd("height", "height of the defining ideal (or --ideal)", **ideal_flag)
    cmd("depth", "depth of the ring")
    cmd("socle", "socle (0 : m)")
    cmd("loewy", "Loewy length of R/I for the m-primary --ideal", **ideal_flag)
    cmd("nu", "minimal number of generators of --ideal", **ideal_flag)
    cmd("equidim", "equidimensionality verdict")
    cmd("minimal-primes", "minimal primes of the (monomial) defining ideal")
    cmd("isolated", "isolated-singularity certificate")
    cmd("resolve", "minimal free resolution of a module", module=True,
        **{"--length": {"type": int, "default": 4,
                        "help": "resolution length (default 4)"}})
    cmd("ext", "Ext^i(M, N) presentation", module=True, target=True,
        **degree_flag(1))
    cmd("ext-ann", "does r annihilate Ext^i(M, N)?", module=True, target=True,
        **{**element_flag, **degree_flag(2)})
    cmd("koszul", "Koszul cohomology H^i of a sequence on a module",
        module=True, **{**{"--sequence": {"default": None, "metavar": "(f1,...)",
                                          "help": "ring elements"}},
                        **degree_flag(0)})
    cmd("stable-ann", "stable annihilation certificate for r on a module",
        module=True, **element_flag)
    cmd("bound", "generation-time bound for --ideal (default: jac)",
        **{**ideal_flag, "--assume-annihilates": {"action": "store_true",
           "help": "record the annihilation hypothesis instead of checking"}})
    cmd("report", "full singularity report (JSON)",
        **{**ideal_flag, "--assume-annihilates": {"action": "store_true",
           "help": "record the annihilation hypothesis instead of checking"}})
    cmd("verify-paper", "re-run the golden-example ledger", ring=False,
        **{"--field": {"default": "Q", "metavar": "FIELD",
                       "help": "coefficient field: Q or F<p> (default Q)"}})
    return top


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        code, text, doc = _execute(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, UnsupportedInputError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json or args.command == "report":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # interpreter's flush at exit fails silently too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
