"""Recursive-descent parser for MiniSol.

Grammar (roughly)::

    program     := contract*
    contract    := 'contract' IDENT '{' member* '}'
    member      := statevar | modifier | constructor | function
    statevar    := type IDENT ('=' expr)? ';'
    type        := 'uint256' | 'uint' | 'address' | 'bool'
                 | 'mapping' '(' type '=>' type ')'
    modifier    := 'modifier' IDENT ('(' params ')')? block
    constructor := 'constructor' '(' params? ')' block
    function    := 'function' IDENT '(' params? ')' attrs
                   ('returns' '(' type ')')? block
    stmt        := block | vardecl | if | while | require | return
                 | '_' ';' | assignment | exprstmt
    expr        := precedence-climbing over || && == != < <= > >= + - * / % ! -

``call(target, "sig(types)", args...)`` parses to an :class:`ExternalCall`
node; every other ``name(args)`` form is a :class:`CallExpr`, resolved to an
internal function or builtin by the checker.
"""

from __future__ import annotations

from typing import List, Optional

from repro.minisol import ast_nodes as ast
from repro.minisol.errors import MiniSolError
from repro.minisol.lexer import Token, tokenize

ELEMENTARY_TYPES = {"uint256": "uint256", "uint": "uint256", "address": "address", "bool": "bool"}

# Binary operator precedence: higher binds tighter.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


class ParseError(MiniSolError):
    """A syntax error in MiniSol source."""

    def __init__(self, message: str, token: Token):
        super().__init__("line %d: %s (at %r)" % (token.line, message, token.text))
        self.token = token


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # ----------------------------------------------------------- utilities

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in ("keyword", "symbol", "ident")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise ParseError("expected %r" % text, self.current)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise ParseError("expected identifier", self.current)
        return self.advance()

    def at_type(self) -> bool:
        return self.current.text in ELEMENTARY_TYPES or self.current.text == "mapping"

    # ------------------------------------------------------------- program

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self.current.kind != "eof":
            program.contracts.append(self.parse_contract())
        return program

    def parse_contract(self) -> ast.Contract:
        line = self.current.line
        self.expect("contract")
        name = self.expect_ident().text
        contract = ast.Contract(name=name, line=line)
        self.expect("{")
        while not self.accept("}"):
            self.parse_member(contract)
        return contract

    def parse_member(self, contract: ast.Contract) -> None:
        if self.check("event"):
            contract.events.append(self.parse_event())
        elif self.check("modifier"):
            contract.modifiers.append(self.parse_modifier())
        elif self.check("constructor"):
            ctor = self.parse_constructor()
            if contract.constructor is not None:
                raise ParseError("duplicate constructor", self.current)
            contract.constructor = ctor
        elif self.check("function"):
            contract.functions.append(self.parse_function())
        elif self.at_type():
            contract.state_vars.append(self.parse_state_var())
        else:
            raise ParseError("expected contract member", self.current)

    # ----------------------------------------------------------- types

    def parse_type(self) -> ast.TypeLike:
        token = self.current
        if token.text in ELEMENTARY_TYPES:
            self.advance()
            return ast.Type(ELEMENTARY_TYPES[token.text])
        if token.text == "mapping":
            self.advance()
            self.expect("(")
            key = self.parse_type()
            if not isinstance(key, ast.Type):
                raise ParseError("mapping keys must be elementary types", token)
            self.expect("=>")
            value = self.parse_type()
            self.expect(")")
            return ast.MappingType(key=key, value=value)
        raise ParseError("expected type", token)

    def parse_elementary_type(self) -> ast.Type:
        parsed = self.parse_type()
        if not isinstance(parsed, ast.Type):
            raise ParseError("mapping type not allowed here", self.current)
        return parsed

    # ----------------------------------------------------------- members

    def parse_state_var(self) -> ast.StateVarDef:
        line = self.current.line
        var_type = self.parse_type()
        if isinstance(var_type, ast.Type) and self.accept("["):
            size_token = self.advance()
            if size_token.kind != "number":
                raise ParseError("array size must be a number literal", size_token)
            self.expect("]")
            var_type = ast.ArrayType(element=var_type, size=int(size_token.text, 0))
        name = self.expect_ident().text
        initializer = None
        if self.accept("="):
            initializer = self.parse_expression()
        self.expect(";")
        return ast.StateVarDef(var_type=var_type, name=name, line=line, initializer=initializer)

    def parse_params(self) -> List[ast.Param]:
        params: List[ast.Param] = []
        self.expect("(")
        if not self.check(")"):
            while True:
                param_type = self.parse_elementary_type()
                name = self.expect_ident().text
                params.append(ast.Param(param_type=param_type, name=name))
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    def parse_modifier(self) -> ast.ModifierDef:
        line = self.current.line
        self.expect("modifier")
        name = self.expect_ident().text
        params = self.parse_params() if self.check("(") else []
        body = self.parse_block()
        return ast.ModifierDef(name=name, params=params, body=body, line=line)

    def parse_event(self) -> ast.EventDef:
        line = self.current.line
        self.expect("event")
        name = self.expect_ident().text
        params = self.parse_params()
        self.expect(";")
        return ast.EventDef(name=name, params=params, line=line)

    def parse_constructor(self) -> ast.FunctionDef:
        line = self.current.line
        self.expect("constructor")
        params = self.parse_params()
        while self.current.text in ("public", "payable", "internal"):
            self.advance()
        body = self.parse_block()
        return ast.FunctionDef(
            name="constructor",
            params=params,
            body=body,
            is_constructor=True,
            line=line,
        )

    def parse_function(self) -> ast.FunctionDef:
        line = self.current.line
        self.expect("function")
        name = self.expect_ident().text
        params = self.parse_params()
        visibility = "public"
        modifiers: List[ast.ModifierInvocation] = []
        return_type: Optional[ast.Type] = None
        while True:
            token = self.current
            if token.text in ("public", "private", "internal", "external"):
                visibility = token.text
                self.advance()
            elif token.text in ("payable", "view", "pure"):
                self.advance()  # accepted and ignored
            elif token.text == "returns":
                self.advance()
                self.expect("(")
                return_type = self.parse_elementary_type()
                if self.current.kind == "ident":
                    self.advance()  # optional named return value (ignored)
                self.expect(")")
            elif token.kind == "ident":
                mod_line = token.line
                mod_name = self.advance().text
                args: List[ast.Expr] = []
                if self.accept("("):
                    if not self.check(")"):
                        while True:
                            args.append(self.parse_expression())
                            if not self.accept(","):
                                break
                    self.expect(")")
                modifiers.append(ast.ModifierInvocation(name=mod_name, args=args, line=mod_line))
            else:
                break
        body = self.parse_block()
        return ast.FunctionDef(
            name=name,
            params=params,
            body=body,
            visibility=visibility,
            modifiers=modifiers,
            return_type=return_type,
            line=line,
        )

    # --------------------------------------------------------- statements

    def parse_block(self) -> ast.Block:
        line = self.current.line
        self.expect("{")
        statements: List[ast.Stmt] = []
        while not self.accept("}"):
            statements.append(self.parse_statement())
        return ast.Block(line=line, statements=statements)

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if self.check("{"):
            return self.parse_block()
        if self.at_type():
            var_type = self.parse_elementary_type()
            name = self.expect_ident().text
            initializer = None
            if self.accept("="):
                initializer = self.parse_expression()
            self.expect(";")
            return ast.VarDecl(line=token.line, var_type=var_type, name=name, initializer=initializer)
        if self.accept("if"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            then_branch = self.parse_statement()
            else_branch = self.parse_statement() if self.accept("else") else None
            return ast.If(
                line=token.line,
                condition=condition,
                then_branch=then_branch,
                else_branch=else_branch,
            )
        if self.accept("while"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return ast.While(line=token.line, condition=condition, body=body)
        if self.accept("for"):
            # Sugar: for (init; cond; post) body
            #   =>   { init; while (cond) { body; post; } }
            self.expect("(")
            init: Optional[ast.Stmt] = None
            if not self.check(";"):
                init = self._parse_simple_statement()
            else:
                self.advance()
            condition: ast.Expr = ast.BoolLiteral(line=token.line, value=True)
            if not self.check(";"):
                condition = self.parse_expression()
            self.expect(";")
            post: Optional[ast.Stmt] = None
            if not self.check(")"):
                post = self._parse_loop_post()
            self.expect(")")
            body = self.parse_statement()
            loop_body = ast.Block(
                line=token.line,
                statements=[body] + ([post] if post is not None else []),
            )
            loop = ast.While(line=token.line, condition=condition, body=loop_body)
            statements: List[ast.Stmt] = []
            if init is not None:
                statements.append(init)
            statements.append(loop)
            return ast.Block(line=token.line, statements=statements)
        if self.accept("emit"):
            name = self.expect_ident().text
            self.expect("(")
            args: List[ast.Expr] = []
            if not self.check(")"):
                while True:
                    args.append(self.parse_expression())
                    if not self.accept(","):
                        break
            self.expect(")")
            self.expect(";")
            return ast.Emit(line=token.line, name=name, args=args)
        if self.accept("require"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            self.expect(";")
            return ast.Require(line=token.line, condition=condition)
        if self.accept("return"):
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(line=token.line, value=value)
        if self.current.kind == "ident" and self.current.text == "_":
            nxt = self.tokens[self.position + 1]
            if nxt.text == ";":
                self.advance()
                self.advance()
                return ast.Placeholder(line=token.line)

        expr = self.parse_expression()
        for op in ("=", "+=", "-="):
            if self.accept(op):
                if not isinstance(expr, (ast.Identifier, ast.IndexAccess)):
                    raise ParseError("invalid assignment target", token)
                value = self.parse_expression()
                self.expect(";")
                return ast.Assign(line=token.line, target=expr, value=value, op=op)
        self.expect(";")
        return ast.ExprStmt(line=token.line, expr=expr)

    def _parse_simple_statement(self) -> ast.Stmt:
        """A for-initializer: a variable declaration or assignment, with
        its terminating semicolon."""
        token = self.current
        if self.at_type():
            var_type = self.parse_elementary_type()
            name = self.expect_ident().text
            initializer = None
            if self.accept("="):
                initializer = self.parse_expression()
            self.expect(";")
            return ast.VarDecl(
                line=token.line, var_type=var_type, name=name, initializer=initializer
            )
        expr = self.parse_expression()
        for op in ("=", "+=", "-="):
            if self.accept(op):
                if not isinstance(expr, (ast.Identifier, ast.IndexAccess)):
                    raise ParseError("invalid assignment target", token)
                value = self.parse_expression()
                self.expect(";")
                return ast.Assign(line=token.line, target=expr, value=value, op=op)
        raise ParseError("expected declaration or assignment", token)

    def _parse_loop_post(self) -> ast.Stmt:
        """A for-loop post step: an assignment without a semicolon."""
        token = self.current
        expr = self.parse_expression()
        for op in ("=", "+=", "-="):
            if self.accept(op):
                if not isinstance(expr, (ast.Identifier, ast.IndexAccess)):
                    raise ParseError("invalid assignment target", token)
                value = self.parse_expression()
                return ast.Assign(line=token.line, target=expr, value=value, op=op)
        return ast.ExprStmt(line=token.line, expr=expr)

    # -------------------------------------------------------- expressions

    def parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.current.text
            precedence = PRECEDENCE.get(op)
            if self.current.kind != "symbol" or precedence is None or precedence < min_precedence:
                return left
            line = self.current.line
            self.advance()
            right = self.parse_expression(precedence + 1)
            left = ast.BinaryOp(line=line, op=op, left=left, right=right)

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if self.current.kind == "symbol" and self.current.text in ("!", "-"):
            self.advance()
            operand = self.parse_unary()
            return ast.UnaryOp(line=token.line, op=token.text, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.accept("["):
            index = self.parse_expression()
            self.expect("]")
            expr = ast.IndexAccess(line=expr.line, base=expr, index=index)
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.NumberLiteral(line=token.line, value=int(token.text, 0))
        if token.text == "true":
            self.advance()
            return ast.BoolLiteral(line=token.line, value=True)
        if token.text == "false":
            self.advance()
            return ast.BoolLiteral(line=token.line, value=False)
        if token.text == "msg":
            self.advance()
            self.expect(".")
            member = self.expect_ident().text
            if member == "sender":
                return ast.MsgSender(line=token.line)
            if member == "value":
                return ast.MsgValue(line=token.line)
            raise ParseError("unknown msg member %r" % member, token)
        if token.text == "this":
            self.advance()
            return ast.ThisExpr(line=token.line)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.kind == "ident":
            name = self.advance().text
            if self.check("("):
                return self.parse_call(name, token)
            return ast.Identifier(line=token.line, name=name)
        raise ParseError("expected expression", token)

    def parse_call(self, name: str, token: Token) -> ast.Expr:
        self.expect("(")
        args: List[ast.Expr] = []
        signature: Optional[str] = None
        while not self.check(")"):
            if self.current.kind == "string":
                if signature is not None:
                    raise ParseError("multiple signature strings in call", self.current)
                signature = self.advance().text
            else:
                args.append(self.parse_expression())
            if not self.accept(","):
                break
        self.expect(")")
        if name in ("call", "callvalue_to") or (
            name == "delegatecall" and signature is not None
        ):
            if signature is None or not args:
                raise ParseError(
                    'external call needs a target and a "signature" string', token
                )
            value = None
            remaining = args[1:]
            if name == "callvalue_to":
                if len(args) < 2:
                    raise ParseError("callvalue_to needs target and value", token)
                value = args[1]
                remaining = args[2:]
            return ast.ExternalCall(
                line=token.line,
                target=args[0],
                signature=signature,
                args=remaining,
                value=value,
                kind="delegatecall" if name == "delegatecall" else "call",
            )
        if signature is not None:
            raise ParseError("unexpected string argument", token)
        return ast.CallExpr(line=token.line, name=name, args=args)


def parse(source: str) -> ast.Program:
    """Parse MiniSol source text into a :class:`Program`."""
    return _Parser(tokenize(source)).parse_program()
