.PHONY: all build test check fmt bench quick-bench clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting is best-effort: the dune fmt alias needs ocamlformat, which
# not every environment has installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping fmt"; \
	fi

check: build test fmt

# bench/main.exe runs one suite: `paper` (the default, the paper's
# figures and ablations) or a budget-gated one (hotpath, adaptive, kv, obs,
# recovery, load, multiring), e.g. `dune exec bench/main.exe -- kv quick`.
bench:
	dune exec bench/main.exe

quick-bench:
	dune exec bench/main.exe -- quick

clean:
	dune clean
