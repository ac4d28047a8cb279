"""Semantic shard-safety & determinism analyzer for the Rocksteady tree.

Package layout:
  lexer.py           C++ token stream (comments/strings stripped, lines kept)
  model.py           frontend-neutral facts (state sites, range-fors, calls...)
  frontend_tokens.py token/scope frontend — runs everywhere, no deps
  rules.py           the four semantic rules over the model
  baseline.py        reviewed-findings baseline (grandfathering)

tools/analyze.py is the unified driver (these rules + lint_determinism.py).
"""
