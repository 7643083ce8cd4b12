"""Parser for a Soufflé-like textual Datalog syntax.

Supported surface syntax::

    // comment
    .decl Edge(x, y)                     // optional, arity recorded
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).
    Safe(x) :- Node(x), !Tainted(x).
    Fact("a", 42).                       // ground fact (stored as a rule)

Terms: lowercase identifiers are variables, ``_`` is the wildcard, quoted
strings and integer literals are constants.  Uppercase-initial identifiers
are also variables (Datalog tradition varies; here anything unquoted and
non-numeric is a variable) — use quotes for symbolic constants.

Every atom's arity is checked against an earlier ``.decl`` for its
relation, or — when the relation was never declared — against its first
use; a contradiction is a :class:`DatalogSyntaxError` carrying the line.
The linter (:mod:`repro.datalog.lint`) parses with
:func:`parse_program_lenient` instead, which *collects* arity and rule
safety problems as :class:`ParseIssue` records rather than raising on the
first one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.datalog.terms import Atom, Literal, Rule, Variable


class DatalogSyntaxError(Exception):
    """Malformed Datalog text.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message if not line else "line %d: %s" % (line, message))
        self.line = line


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<decl>\.decl)
  | (?P<implies>:-)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),.!])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int  # 1-based


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    position = 0
    line = 1
    end = len(text)
    while position < end:
        matched = match(text, position)
        if matched is None:
            raise DatalogSyntaxError(
                "unexpected character %r" % text[position], line=line
            )
        kind = matched.lastgroup
        value = matched.group()
        if kind != "comment":
            if kind != "ws":
                append(Token(kind, value, line))
            if kind == "ws" or kind == "string":  # the kinds that span lines
                line += value.count("\n")
        position = matched.end()
    append(Token("eof", "", line))
    return tokens


@dataclass(frozen=True)
class ParseIssue:
    """One problem found while parsing leniently."""

    line: int
    code: str  # "arity-mismatch" | "unsafe-rule" | "duplicate-decl"
    message: str


@dataclass
class ParsedProgram:
    rules: List[Rule] = field(default_factory=list)
    declarations: Dict[str, int] = field(default_factory=dict)  # relation -> arity
    declaration_lines: Dict[str, int] = field(default_factory=dict)
    issues: List[ParseIssue] = field(default_factory=list)  # lenient mode only


class _Parser:
    def __init__(self, tokens: List[Token], lenient: bool = False):
        self.tokens = tokens
        self.position = 0
        self.lenient = lenient
        # relation -> (arity, line, "declared" | "used") for consistency
        # checking across the whole program.
        self.arities: Dict[str, Tuple[int, int, str]] = {}
        self.issues: List[ParseIssue] = []

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            raise DatalogSyntaxError(
                "expected %s %r, got %r" % (kind, text, token.text), line=token.line
            )
        return self.advance()

    def _problem(self, code: str, message: str, line: int) -> None:
        if self.lenient:
            self.issues.append(ParseIssue(line=line, code=code, message=message))
        else:
            raise DatalogSyntaxError(message, line=line)

    def _check_arity(self, name: str, arity: int, line: int, origin: str) -> None:
        known = self.arities.get(name)
        if known is None:
            self.arities[name] = (arity, line, origin)
            return
        known_arity, known_line, known_origin = known
        if arity != known_arity:
            self._problem(
                "arity-mismatch",
                "relation %s used with arity %d but %s with arity %d at line %d"
                % (name, arity, known_origin, known_arity, known_line),
                line,
            )

    def parse(self) -> ParsedProgram:
        program = ParsedProgram()
        while self.current.kind != "eof":
            if self.current.kind == "decl":
                decl_token = self.advance()
                name_token = self.expect("ident")
                name = name_token.text
                self.expect("punct", "(")
                arity = 0
                while self.current.text != ")":
                    self.advance()
                    arity += 1
                    if self.current.text == ",":
                        self.advance()
                self.expect("punct", ")")
                if name in program.declarations:
                    self._problem(
                        "duplicate-decl",
                        "relation %s re-declared (first declared at line %d)"
                        % (name, program.declaration_lines[name]),
                        decl_token.line,
                    )
                else:
                    program.declarations[name] = arity
                    program.declaration_lines[name] = decl_token.line
                self._check_arity(name, arity, decl_token.line, "declared")
                continue
            program.rules.append(self.parse_rule())
        program.issues = self.issues
        return program

    def parse_rule(self) -> Rule:
        line = self.current.line
        head = self.parse_atom()
        body = []
        if (self.current.kind, self.current.text) == ("implies", ":-"):
            self.advance()
            while True:
                negated = False
                if (self.current.kind, self.current.text) == ("punct", "!"):
                    self.advance()
                    negated = True
                atom = self.parse_atom()
                body.append(Literal(atom, negated=negated))
                if (self.current.kind, self.current.text) == ("punct", ","):
                    self.advance()
                    continue
                break
        self.expect("punct", ".")
        if self.lenient:
            rule = Rule(head=head, body=body, line=line, check=False)
            for violation in rule.safety_violations():
                self._problem("unsafe-rule", violation, line)
            return rule
        return Rule(head=head, body=body, line=line)

    def parse_atom(self) -> Atom:
        name_token = self.expect("ident")
        name = name_token.text
        self.expect("punct", "(")
        args = []
        while self.current.text != ")":
            token = self.advance()
            if token.kind == "string":
                args.append(token.text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
            elif token.kind == "number":
                args.append(int(token.text))
            elif token.kind == "ident":
                args.append(Variable(token.text))
            else:
                raise DatalogSyntaxError(
                    "unexpected term %r" % token.text, line=token.line
                )
            if (self.current.kind, self.current.text) == ("punct", ","):
                self.advance()
        self.expect("punct", ")")
        self._check_arity(name, len(args), name_token.line, "used")
        return Atom(name, *args)


def parse_program(text: str) -> ParsedProgram:
    """Parse a full program (declarations + rules + ground facts).

    Arity contradictions (vs. an earlier ``.decl`` or the relation's first
    use) raise :class:`DatalogSyntaxError` with the offending line.
    """
    return _Parser(_tokenize(text)).parse()


def parse_program_lenient(text: str) -> ParsedProgram:
    """Parse, collecting arity/safety problems instead of raising.

    Returned rules are built *without* the construction-time safety check
    (the violations appear in ``program.issues``), so an unsafe program can
    still be inspected by the linter.  Structural syntax errors (unbalanced
    parentheses, missing ``.``) still raise.
    """
    return _Parser(_tokenize(text), lenient=True).parse()


def parse_rule(text: str) -> Rule:
    """Parse a single rule or fact."""
    parser = _Parser(_tokenize(text))
    rule = parser.parse_rule()
    if parser.current.kind != "eof":
        raise DatalogSyntaxError("trailing input after rule", line=parser.current.line)
    return rule
