.PHONY: all build test check lint bench server-smoke server-chaos doc loc clean

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

# timing-ratio gates at full size (bench/main.ml); CI runs
# `dune exec bench/main.exe -- small`
bench:
	dune exec bench/main.exe

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
# bin/, examples/ or bench/ file names (qualified access, module alias,
# include or open), i.e. code only tests reach; then the values a lib/
# .mli exports whose name no lib/, bin/, examples/ or bench/ file
# outside their own module mentions (a name match: candidates, not
# verdicts; DESIGN.md gives the reason each listed value stays).  Fails
# when more than LOC_UNUSED_MAX values are listed.
LOC_UNUSED_MAX = 14

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
	    lib bin examples bench --include='*.ml' --include='*.mli' \
	    | grep -qv "^$$d/$$b\.mli\?$$" \
	    || echo "$$lib.$$m" | sed 's/^./\U&/'; \
	done); \
	echo "lib, unused by lib/bin/examples/bench:" $$unused; \
	vals=$$(for f in $$(find lib -name '*.mli' | sort); do \
	  d=$$(dirname $$f); b=$$(basename $$f .mli); \
	  m=$$(echo $$b | sed 's/^./\U&/'); \
	  lib=$$(sed -n 's/.*(name \([a-z_]*\)).*/\1/p' $$d/dune | head -1); \
	  for v in $$(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\).*/\1/p' $$f | sort -u); do \
	    grep -rlw --include='*.ml' --include='*.mli' -e "$$v" lib bin examples bench \
	      | grep -qv "^$$d/$$b\.mli\?$$" \
	      || echo "$$lib.$$m.$$v" | sed 's/^./\U&/'; \
	  done; \
	done); \
	count=$$(echo $$vals | wc -w); \
	echo "lib vals, unused by lib/bin/examples/bench: $$count (at most $(LOC_UNUSED_MAX))"; \
	echo $$vals | fmt -w 76 | sed 's/^/  /'; \
	test $$count -le $(LOC_UNUSED_MAX) \
	  || { echo "make loc: $$count unused values, more than $(LOC_UNUSED_MAX)"; exit 1; }

# API reference (requires odoc: `opam install odoc`);
# output lands in _build/default/_doc/_html/
doc:
	dune build @doc

clean:
	dune clean
