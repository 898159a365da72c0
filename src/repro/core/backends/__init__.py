"""Emission backends of the compilation pipeline.

The pipeline is analyze -> lower -> emit (see :mod:`repro.core.ir`).  One
backend consumes the shared analysis:
:mod:`repro.core.backends.closures`, the staged source compiler — one
specialized Python closure per alternative (``backend="compiled"``, AOT
``to_source()``).  The reference interpreter
(:mod:`repro.core.interpreter`, ``backend="interpreted"``) is the
differential oracle it is tested against.
"""

from .closures import CompiledGrammar, Optimizations, compile_grammar

__all__ = ["CompiledGrammar", "Optimizations", "compile_grammar"]
