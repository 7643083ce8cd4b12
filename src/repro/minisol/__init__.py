"""MiniSol: a small Solidity-like language compiled to EVM bytecode.

MiniSol stands in for Solidity/`solc` in this reproduction.  It supports the
constructs the Ethainter paper's vulnerability classes revolve around:

* contracts with persistent state variables (``uint256``, ``address``,
  ``bool``) and (nested) ``mapping`` types laid out exactly like Solidity
  (sequential slots; mapping elements at ``hash(key ++ slot)``),
* ``public`` functions dispatched by 4-byte ABI selector,
* ``modifier`` definitions with the ``_;`` placeholder, ``require`` guards,
  and ``msg.sender`` — the guard idioms Ethainter models,
* the sensitive operations ``selfdestruct``, ``delegatecall``, and the
  checked/unchecked ``staticcall`` patterns of paper §3.5,
* internal function calls, external ABI calls, and value transfer.

The public entry point is :func:`compile_source`, which returns a
:class:`CompiledContract` carrying runtime bytecode, init bytecode, and the
ABI needed to interact with the contract on :class:`repro.chain.Blockchain`.
"""

from repro.minisol.ast_nodes import (
    Contract,
    FunctionDef,
    MappingType,
    ModifierDef,
    Program,
    StateVarDef,
    Type,
)
from repro.minisol.errors import MiniSolError, NestingError
from repro.minisol.lexer import LexError, Token, tokenize
from repro.minisol.parser import ParseError, parse
from repro.minisol.checker import CheckError, check
from repro.minisol.compiler import CompiledContract, compile_contract, compile_source
from repro.minisol.abi import encode_args, encode_call, decode_word

__all__ = [
    "Program",
    "Contract",
    "FunctionDef",
    "ModifierDef",
    "StateVarDef",
    "Type",
    "MappingType",
    "MiniSolError",
    "NestingError",
    "Token",
    "tokenize",
    "LexError",
    "parse",
    "ParseError",
    "check",
    "CheckError",
    "compile_source",
    "compile_contract",
    "CompiledContract",
    "encode_call",
    "encode_args",
    "decode_word",
]
