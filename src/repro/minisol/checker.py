"""Semantic checker for MiniSol.

Responsibilities:

* assign storage slots to state variables (sequential, Solidity-style),
* resolve identifiers (state vars, locals/params, functions, builtins),
* check modifier references and ``_;`` placement,
* light type checking — every MiniSol value is one 256-bit word, so the
  checker enforces structural rules (mapping index depth, call arity,
  assignability) rather than deep typing.

The checker mutates the AST in place (slot assignment) and returns the
program for chaining.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.minisol import ast_nodes as ast
from repro.minisol.errors import MiniSolError

# Builtins and their argument counts (None = variadic, validated ad hoc).
BUILTINS: Dict[str, Optional[int]] = {
    "selfdestruct": 1,
    "delegatecall": 1,
    "staticcall_unchecked": 1,
    "staticcall_checked": 1,
    "transfer": 2,  # transfer(to, amount): plain value send
    "balance": 1,
    "sha3": 1,
    "gasleft": 0,
}


class CheckError(MiniSolError):
    """A semantic error in MiniSol source."""

    def __init__(self, message: str, line: int = 0):
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line


class _Scope:
    """Lexical scope chain for locals and parameters."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Set[str] = set()

    def declare(self, name: str, line: int) -> None:
        if name in self.names:
            raise CheckError("redeclaration of %r" % name, line)
        self.names.add(name)

    def is_defined(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False


class _ContractChecker:
    def __init__(self, contract: ast.Contract):
        self.contract = contract
        self.state_vars = {var.name: var for var in contract.state_vars}
        self.functions = {fn.name: fn for fn in contract.functions}
        self.modifiers = {mod.name: mod for mod in contract.modifiers}
        self.events = {event.name: event for event in contract.events}
        self.in_modifier = False

    def run(self) -> None:
        self._assign_slots()
        seen: Set[str] = set()
        for fn in self.contract.functions:
            if fn.name in seen:
                raise CheckError("duplicate function %r" % fn.name, fn.line)
            seen.add(fn.name)
        for fn in self.contract.functions:
            self._check_function(fn)
        if self.contract.constructor is not None:
            self._check_function(self.contract.constructor)
        for mod in self.contract.modifiers:
            self._check_modifier(mod)

    def _assign_slots(self) -> None:
        seen: Set[str] = set()
        next_slot = 0
        for var in self.contract.state_vars:
            if var.name in seen:
                raise CheckError("duplicate state variable %r" % var.name, var.line)
            seen.add(var.name)
            var.slot = next_slot
            # Fixed-size arrays occupy `size` consecutive slots (Solidity
            # layout); everything else occupies one.
            if isinstance(var.var_type, ast.ArrayType):
                if var.var_type.size <= 0:
                    raise CheckError("array size must be positive", var.line)
                next_slot += var.var_type.size
            else:
                next_slot += 1
            if var.initializer is not None and isinstance(
                var.var_type, (ast.MappingType, ast.ArrayType)
            ):
                raise CheckError(
                    "mappings/arrays cannot have initializers", var.line
                )

    # ----------------------------------------------------------- functions

    def _check_function(self, fn: ast.FunctionDef) -> None:
        for invocation in fn.modifiers:
            modifier = self.modifiers.get(invocation.name)
            if modifier is None:
                raise CheckError("unknown modifier %r" % invocation.name, invocation.line)
            if len(invocation.args) != len(modifier.params):
                raise CheckError(
                    "modifier %r expects %d argument(s), got %d"
                    % (invocation.name, len(modifier.params), len(invocation.args)),
                    invocation.line,
                )
        scope = _Scope()
        for param in fn.params:
            scope.declare(param.name, fn.line)
        self._check_block(fn.body, scope, fn)

    def _check_modifier(self, mod: ast.ModifierDef) -> None:
        self.in_modifier = True
        try:
            scope = _Scope()
            for param in mod.params:
                scope.declare(param.name, mod.line)
            placeholders = self._count_placeholders(mod.body)
            if placeholders != 1:
                raise CheckError(
                    "modifier %r must contain exactly one '_;' (found %d)"
                    % (mod.name, placeholders),
                    mod.line,
                )
            self._check_block(mod.body, scope, None)
        finally:
            self.in_modifier = False

    def _count_placeholders(self, stmt: ast.Stmt) -> int:
        if isinstance(stmt, ast.Placeholder):
            return 1
        if isinstance(stmt, ast.Block):
            return sum(self._count_placeholders(s) for s in stmt.statements)
        if isinstance(stmt, ast.If):
            count = self._count_placeholders(stmt.then_branch)
            if stmt.else_branch is not None:
                count += self._count_placeholders(stmt.else_branch)
            return count
        if isinstance(stmt, ast.While):
            return self._count_placeholders(stmt.body)
        return 0

    # ---------------------------------------------------------- statements

    def _check_block(self, block: ast.Block, scope: _Scope, fn: Optional[ast.FunctionDef]) -> None:
        inner = _Scope(scope)
        for stmt in block.statements:
            self._check_statement(stmt, inner, fn)

    def _check_statement(self, stmt: ast.Stmt, scope: _Scope, fn: Optional[ast.FunctionDef]) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope, fn)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.initializer is not None:
                self._check_expr(stmt.initializer, scope)
            scope.declare(stmt.name, stmt.line)
        elif isinstance(stmt, ast.Assign):
            self._check_lvalue(stmt.target, scope)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.condition, scope)
            self._check_statement(stmt.then_branch, _Scope(scope), fn)
            if stmt.else_branch is not None:
                self._check_statement(stmt.else_branch, _Scope(scope), fn)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.condition, scope)
            self._check_statement(stmt.body, _Scope(scope), fn)
        elif isinstance(stmt, ast.Require):
            self._check_expr(stmt.condition, scope)
        elif isinstance(stmt, ast.Emit):
            event = self.events.get(stmt.name)
            if event is None:
                raise CheckError("unknown event %r" % stmt.name, stmt.line)
            if len(stmt.args) != len(event.params):
                raise CheckError(
                    "event %r expects %d argument(s), got %d"
                    % (stmt.name, len(event.params), len(stmt.args)),
                    stmt.line,
                )
            for arg in stmt.args:
                self._check_expr(arg, scope)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
                if fn is not None and fn.return_type is None and not fn.is_constructor:
                    raise CheckError(
                        "function %r returns a value but declares no return type" % fn.name,
                        stmt.line,
                    )
        elif isinstance(stmt, ast.Placeholder):
            if not self.in_modifier:
                raise CheckError("'_;' is only allowed inside modifiers", stmt.line)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        else:  # pragma: no cover
            raise CheckError("unknown statement %r" % stmt, getattr(stmt, "line", 0))

    def _check_lvalue(self, target: ast.Expr, scope: _Scope) -> None:
        if isinstance(target, ast.Identifier):
            if scope.is_defined(target.name):
                return
            var = self.state_vars.get(target.name)
            if var is None:
                raise CheckError("assignment to undeclared %r" % target.name, target.line)
            if isinstance(var.var_type, (ast.MappingType, ast.ArrayType)):
                raise CheckError(
                    "cannot assign to %r without an index" % target.name, target.line
                )
            return
        if isinstance(target, ast.IndexAccess):
            depth = 0
            base = target
            while isinstance(base, ast.IndexAccess):
                self._check_expr(base.index, scope)
                depth += 1
                base = base.base
            if not isinstance(base, ast.Identifier):
                raise CheckError("invalid indexed assignment target", target.line)
            var = self.state_vars.get(base.name)
            if var is None:
                raise CheckError("indexing into unknown variable %r" % base.name, target.line)
            var_type = var.var_type
            if isinstance(var_type, ast.ArrayType):
                if depth != 1:
                    raise CheckError(
                        "array %r takes exactly one index" % base.name, target.line
                    )
                return
            for _ in range(depth):
                if not isinstance(var_type, ast.MappingType):
                    raise CheckError("too many indexes into %r" % base.name, target.line)
                var_type = var_type.value
            if isinstance(var_type, ast.MappingType):
                raise CheckError(
                    "partial mapping index on %r is not assignable" % base.name, target.line
                )
            return
        raise CheckError("invalid assignment target", getattr(target, "line", 0))

    # --------------------------------------------------------- expressions

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        if isinstance(expr, (ast.NumberLiteral, ast.BoolLiteral, ast.MsgSender, ast.MsgValue, ast.ThisExpr)):
            return
        if isinstance(expr, ast.Identifier):
            if scope.is_defined(expr.name):
                return
            var = self.state_vars.get(expr.name)
            if var is None:
                raise CheckError("unknown identifier %r" % expr.name, expr.line)
            if isinstance(var.var_type, (ast.MappingType, ast.ArrayType)):
                raise CheckError(
                    "%r cannot be read without an index" % expr.name, expr.line
                )
            return
        if isinstance(expr, ast.IndexAccess):
            depth = 0
            base: ast.Expr = expr
            while isinstance(base, ast.IndexAccess):
                self._check_expr(base.index, scope)
                depth += 1
                base = base.base
            if not isinstance(base, ast.Identifier):
                raise CheckError("only state mappings can be indexed", expr.line)
            var = self.state_vars.get(base.name)
            if var is None:
                raise CheckError("indexing into unknown variable %r" % base.name, expr.line)
            var_type: ast.TypeLike = var.var_type
            if isinstance(var_type, ast.ArrayType):
                if depth != 1:
                    raise CheckError(
                        "array %r takes exactly one index" % base.name, expr.line
                    )
                return
            for _ in range(depth):
                if not isinstance(var_type, ast.MappingType):
                    raise CheckError("too many indexes into %r" % base.name, expr.line)
                var_type = var_type.value
            if isinstance(var_type, ast.MappingType):
                raise CheckError("partial mapping read of %r" % base.name, expr.line)
            return
        if isinstance(expr, ast.BinaryOp):
            self._check_expr(expr.left, scope)
            self._check_expr(expr.right, scope)
            return
        if isinstance(expr, ast.UnaryOp):
            self._check_expr(expr.operand, scope)
            return
        if isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                self._check_expr(arg, scope)
            # User-defined functions shadow builtins of the same name (so
            # e.g. a token contract may define its own ``transfer``).
            fn = self.functions.get(expr.name)
            if fn is None and expr.name in BUILTINS:
                arity = BUILTINS[expr.name]
                if arity is not None and len(expr.args) != arity:
                    raise CheckError(
                        "builtin %r expects %d argument(s), got %d"
                        % (expr.name, arity, len(expr.args)),
                        expr.line,
                    )
                return
            if fn is None:
                raise CheckError("unknown function %r" % expr.name, expr.line)
            if len(expr.args) != len(fn.params):
                raise CheckError(
                    "function %r expects %d argument(s), got %d"
                    % (expr.name, len(fn.params), len(expr.args)),
                    expr.line,
                )
            return
        if isinstance(expr, ast.ExternalCall):
            self._check_expr(expr.target, scope)
            if expr.value is not None:
                self._check_expr(expr.value, scope)
            for arg in expr.args:
                self._check_expr(arg, scope)
            if "(" not in expr.signature or not expr.signature.endswith(")"):
                raise CheckError("malformed call signature %r" % expr.signature, expr.line)
            return
        raise CheckError("unknown expression %r" % expr, getattr(expr, "line", 0))


def check(program: ast.Program) -> ast.Program:
    """Check ``program``; raises :class:`CheckError` on the first violation."""
    names: Set[str] = set()
    for contract in program.contracts:
        if contract.name in names:
            raise CheckError("duplicate contract %r" % contract.name, contract.line)
        names.add(contract.name)
        _ContractChecker(contract).run()
    return program
