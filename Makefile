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
# .mli exports that no lib/, bin/, examples/ or bench/ file outside
# their own module uses.  Only a qualified use counts: a file uses
# M.v when it contains M.v or M.Sub.v; or X.v and an alias
# `module X = ...M`; or `open M`, `let open M`, `include M` or `M.(`
# and the bare v.  A name that only another module's value shares is
# no use.  These are candidates, not verdicts; DESIGN.md section 11
# gives the reason each listed value stays.  Fails when more than
# LOC_UNUSED_MAX values are listed.  Both scans read the sources with
# comments and string literals blanked (STRIP_OCAML), so a name that
# only prose or a message mentions is no use.
LOC_UNUSED_MAX = 53

# awk filter: OCaml source minus nested (* *) comments, "..." and
# {id|...|id} string literals and character literals, one output line
# per input line, written under DEST
STRIP_OCAML = \
  FNR == 1 { if (dst != "") close(dst); dst = DEST "/" FILENAME; \
    depth = 0; q = "" } \
  { s = $$0; out = ""; i = 1; n = length(s); \
    while (i <= n) { \
      c = substr(s, i, 1); \
      if (q != "") { \
        if (q == "\"" && c == "\\") i += 2; \
        else if (substr(s, i, length(q)) == q) { i += length(q); q = "" } \
        else i++ } \
      else if (c == "\"") { q = c; i++ } \
      else if (c == "\047" && substr(s, i + 2, 1) == "\047") i += 3; \
      else if (c == "\047" && substr(s, i + 1, 1) == "\\") { \
        j = index(substr(s, i + 3), "\047"); i += j ? 3 + j : 1 } \
      else if (match(substr(s, i), /^[{][a-z_]*[|]/)) { \
        q = "|" substr(s, i + 1, RLENGTH - 2) "}"; i += RLENGTH } \
      else if (substr(s, i, 2) == "(*") { depth++; i += 2 } \
      else if (depth > 0 && substr(s, i, 2) == "*)") { depth--; i += 2 } \
      else { if (depth == 0) out = out c; i++ } } \
    print out > dst }

loc:
	@ml=$$(find lib bin -name '*.ml' -exec cat {} + | wc -l); \
	mli=$$(find lib bin -name '*.mli' -exec cat {} + | wc -l); \
	echo "lib+bin .ml    $$ml"; \
	echo "lib+bin .mli   $$mli"; \
	echo "lib+bin total  $$((ml + mli))"; \
	echo "bench/main.ml  $$(wc -l < bench/main.ml)"; \
	top=$$(pwd); code=$$(mktemp -d); trap 'rm -rf "$$code"' EXIT; \
	srcs=$$(find lib bin examples bench -name '*.ml' -o -name '*.mli'); \
	for f in $$srcs; do mkdir -p $$code/$$(dirname $$f); done; \
	awk -v DEST=$$code '$(STRIP_OCAML)' $$srcs; \
	cd $$code; \
	unused=$$(for f in $$(find lib -name '*.ml' | sort); do \
	  d=$$(dirname $$f); b=$$(basename $$f .ml); \
	  m=$$(echo $$b | sed 's/^./\U&/'); \
	  lib=$$(sed -n 's/.*(name \([a-z_]*\)).*/\1/p' $$top/$$d/dune | head -1); \
	  grep -rlE "\b$$m\.|(module [A-Za-z_]+ =|include|open) ([A-Za-z_]+\.)?$$m\b" \
	    lib bin examples bench --include='*.ml' --include='*.mli' \
	    | grep -qv "^$$d/$$b\.mli\?$$" \
	    || echo "$$lib.$$m" | sed 's/^./\U&/'; \
	done); \
	echo "lib, unused by lib/bin/examples/bench:" $$unused; \
	id='[A-Za-z0-9_]'; \
	vals=$$(for f in $$(find lib -name '*.mli' | sort); do \
	  d=$$(dirname $$f); b=$$(basename $$f .mli); \
	  m=$$(echo $$b | sed 's/^./\U&/'); \
	  lib=$$(sed -n 's/.*(name \([a-z_]*\)).*/\1/p' $$top/$$d/dune | head -1); \
	  others=$$(grep -rlE "\b$$m\b" lib bin examples bench \
	    --include='*.ml' --include='*.mli' | grep -v "^$$d/$$b\.mli\?$$"); \
	  opened=$$(test -z "$$others" \
	    || grep -lE "(open!?|include) +($$id+\.)*$$m\b|\b$$m\.\(" $$others); \
	  aliases=$$(test -z "$$others" \
	    || grep -HoE "module +$$id+ *= *($$id+\.)*$$m\b" $$others \
	    | sed -E 's/^([^:]*):module +([A-Za-z0-9_]*).*/\1:\2/'); \
	  for v in $$(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\).*/\1/p' $$f | sort -u); do \
	    { test -n "$$others" \
	      && grep -qE "\b$$m\.([A-Z]$$id*\.)?$$v\b" $$others; } \
	    || { test -n "$$opened" && grep -qw "$$v" $$opened; } \
	    || ( for a in $$aliases; do \
	      grep -qE "\b$${a#*:}\.([A-Z]$$id*\.)?$$v\b" $${a%%:*} && exit 0; \
	    done; exit 1 ) \
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
