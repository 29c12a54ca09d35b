.PHONY: all build test check lint bench bench-extract bench-serve bench-cancel bench-reduce bench-preflight server-smoke server-chaos doc loc clean

all: build

build:
	dune build

test:
	dune runtest

# tier-1 gate: what CI runs
check:
	dune build && dune runtest

# structural ERC over every shipped deck (rule catalogue: docs/LINT.md);
# pathological test decks are expected to fail and are skipped here
lint: build
	@status=0; \
	for deck in examples/decks/*.sp test/decks/clean_rc.sp \
	    test/decks/isource_open.sp; do \
	  echo "== snoise lint $$deck"; \
	  dune exec bin/snoise_cli.exe -- lint "$$deck" || status=1; \
	done; \
	exit $$status

bench:
	dune exec bench/main.exe

# extraction-at-scale bench only (MG-CG vs direct, tiled cache, BENCH_5.json);
# `make bench-extract SMALL=1` runs the reduced CI-sized ladder
bench-extract:
	dune exec bench/main.exe -- part6 $(if $(SMALL),small)

# resident-service bench only (cold vs warm requests/s, batching
# byte-identity, BENCH_6.json); `make bench-serve SMALL=1` runs the
# reduced CI-sized workload
bench-serve:
	dune exec bench/main.exe -- part7 $(if $(SMALL),small)

# cooperative-cancellation bench only (armed-vs-disarmed AC sweep,
# deadline-fires probe, BENCH_7.json); `make bench-cancel SMALL=1` runs
# the reduced CI-sized ladder
bench-cancel:
	dune exec bench/main.exe -- part8 $(if $(SMALL),small)

# PRIMA model-order-reduction bench only (exact vs rank-k AC sweep,
# matched-accuracy + jobs byte-identity gates, BENCH_8.json);
# `make bench-reduce SMALL=1` runs the reduced CI-sized mesh
bench-reduce:
	dune exec bench/main.exe -- part9 $(if $(SMALL),small)

# numerical pre-flight overhead bench only (static verify vs cold
# compile on the shipped example decks, <= 5% gate, BENCH_9.json);
# `make bench-preflight SMALL=1` trims the repetition counts
bench-preflight:
	dune exec bench/main.exe -- part10 $(if $(SMALL),small)

# end-to-end smoke of `snoise serve` over a real socket (docs/SERVER.md
# session, scripted): cold/warm requests, stats counters, structured
# lint error, health probe, protocol shutdown
server-smoke: build
	sh test/server_smoke.sh

# wire-level chaos harness: each SNOISE_FAULT server injection point
# (kill / delay / garble / drop), asserting a re-issued request is
# identical to an unfaulted baseline and a supervised worker restarts
# warm from its journal
server-chaos: build
	sh test/server_chaos.sh

# code size as ROADMAP item 4 measures it: lib + bin .ml and .mli line
# totals, and bench/main.ml; then the lib/ modules that no other lib/,
# bin/ or examples/ file names (qualified access, module alias, include
# or open), i.e. code only tests or benches reach
loc:
	@ml=$$(find lib bin -name '*.ml' -exec cat {} + | wc -l); \
	mli=$$(find lib bin -name '*.mli' -exec cat {} + | wc -l); \
	echo "lib+bin .ml    $$ml"; \
	echo "lib+bin .mli   $$mli"; \
	echo "lib+bin total  $$((ml + mli))"; \
	echo "bench/main.ml  $$(wc -l < bench/main.ml)"; \
	unused=$$(for f in $$(find lib -name '*.ml' | sort); do \
	  d=$$(dirname $$f); b=$$(basename $$f .ml); \
	  m=$$(echo $$b | sed 's/^./\U&/'); \
	  lib=$$(sed -n 's/.*(name \([a-z_]*\)).*/\1/p' $$d/dune | head -1); \
	  grep -rlE "\b$$m\.|(module [A-Za-z_]+ =|include|open) ([A-Za-z_]+\.)?$$m\b" \
	    lib bin examples --include='*.ml' --include='*.mli' \
	    | grep -qv "^$$d/$$b\.mli\?$$" \
	    || echo "$$lib.$$m" | sed 's/^./\U&/'; \
	done); \
	echo "lib, unused by lib/bin/examples:" $$unused

# API reference (requires odoc: `opam install odoc`);
# output lands in _build/default/_doc/_html/
doc:
	dune build @doc

clean:
	dune clean
