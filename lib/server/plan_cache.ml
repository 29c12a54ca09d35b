module Lru = Sn_numerics.Lru

(* what one plans-table slot holds: the compiled plan, and — when the
   deck went through model-order reduction on the way in — the reduced
   pool model and its passivity certificates, stored alongside so a
   resident plan's pencil re-verifies by hashing alone (the server's
   verify verb), never by recompiling *)
type certified_plan = {
  cp_plan : Snoise.Flow.compiled;
  cp_reduced : Snoise.Reduced_model.t option;
  cp_cert :
    (Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert) option;
}

(* one cache layer: its entries and its monotonic hit/miss counters *)
type 'a layer = { lru : 'a Lru.t; mutable hits : int; mutable misses : int }

let layer capacity = { lru = Lru.create ~capacity; hits = 0; misses = 0 }

(* every layer is guarded by the one lock; a plan is stored with the
   heap words it weighed at insert *)
type t = {
  lock : Mutex.t;
  netlists : Sn_circuit.Netlist.t layer;
  plans : (certified_plan * int) layer;
  macros : Sn_substrate.Macromodel.t layer;
  flows : Snoise.Flow.vco_flow layer;
}

let create ~max_decks ~max_flows =
  let max_decks = max 1 max_decks in
  {
    lock = Mutex.create ();
    (* the parse layer only de-duplicates work between override
       variants of one deck, so it may hold twice as many *)
    netlists = layer (2 * max_decks);
    plans = layer max_decks;
    macros = layer max_decks;
    flows = layer (max 1 max_flows);
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let deck_key ~text ~overrides =
  let canonical =
    List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) overrides
    |> String.concat ";"
  in
  Digest.to_hex
    (Digest.string
       (* v2: compiled plans carry pre-flight artifacts (reduction
          certificates); bumping the key namespace invalidates every
          v1 journal entry and warm key instead of mixing formats *)
       (Printf.sprintf "snoise-plan-v2\n%d:%s\n%s" (String.length text) text
          canonical))

let text_key text =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "snoise-parse-v1\n%d:%s" (String.length text) text))

(* layered find: probe under the lock, compute outside it (a compile
   or extraction can take seconds and must not serialize unrelated
   requests), publish under the lock.  Two racing misses both compute;
   the second publish wins harmlessly — entries are pure values of
   their key. *)
let find_generic t layer ~key ~(compute : unit -> 'a) =
  let cached =
    with_lock t (fun () ->
        let v = Lru.find layer.lru key in
        (match v with
         | Some _ -> layer.hits <- layer.hits + 1
         | None -> layer.misses <- layer.misses + 1);
        v)
  in
  match cached with
  | Some v -> (v, Protocol.Hit)
  | None ->
    let v = compute () in
    with_lock t (fun () -> Lru.add layer.lru key v);
    (v, Protocol.Miss)

(* memory-pressure shedding: drop LRU plans and macromodels down to
   [keep] each and half the flows, returning how many plans and flows
   went.  The freed words only leave the process after a compaction —
   the service pairs this with [Gc.compact]. *)
let shed t ~keep =
  with_lock t (fun () ->
      ignore (Lru.trim t.macros.lru ~max_entries:keep);
      let flows =
        Lru.trim t.flows.lru ~max_entries:(Lru.length t.flows.lru / 2)
      in
      (Lru.trim t.plans.lru ~max_entries:keep, flows))

let words_of plans =
  Lru.fold (fun _ (_, words) acc -> acc + words) plans.lru 0

let plan_words t = with_lock t (fun () -> words_of t.plans)

let find_netlist t ~text ~parse =
  fst
    (find_generic t t.netlists ~key:(text_key text) ~compute:(fun () ->
         parse text))

let find_compiled t ~key ~compile =
  (* weigh each resident plan once at insert so the service's memory
     watermark can account for cache growth without a heap walk per
     request *)
  let (cp, _), note =
    find_generic t t.plans ~key
      ~compute:(fun () ->
        let cp = compile () in
        (cp, Obj.reachable_words (Obj.repr cp)))
  in
  (cp, note)

let find_macro t ~text ~extract =
  find_generic t t.macros ~key:(text_key text) ~compute:extract

let find_flow t ~vtune ~nx ~ny ~build =
  find_generic t t.flows ~key:(Printf.sprintf "%.17g:%d:%d" vtune nx ny)
    ~compute:build

(* certificate re-verification of every resident plan: hash-only
   (Reduced_model.verify_certificate), no compile, no factorization.
   [pv_bad] > 0 means an in-memory pencil no longer matches its own
   signature — memory corruption or a logic bug, either way the plan
   cannot be trusted. *)
type plan_verification = {
  pv_plans : int;
  pv_exact : int;  (** resident plans that never went through reduction *)
  pv_certified : int;
  pv_uncertified : int;
      (** reduced at compile time but certification was refused *)
  pv_bad : int;
}

let verify_plans t =
  let entries =
    with_lock t (fun () ->
        Lru.fold (fun _ (cp, _) acc -> cp :: acc) t.plans.lru [])
  in
  let v =
    {
      pv_plans = List.length entries;
      pv_exact = 0;
      pv_certified = 0;
      pv_uncertified = 0;
      pv_bad = 0;
    }
  in
  List.fold_left
    (fun v cp ->
      match (cp.cp_reduced, cp.cp_cert) with
      | None, _ -> { v with pv_exact = v.pv_exact + 1 }
      | Some _, None -> { v with pv_uncertified = v.pv_uncertified + 1 }
      | Some m, Some cert ->
        if Snoise.Reduced_model.verify_certificate m cert then
          { v with pv_certified = v.pv_certified + 1 }
        else { v with pv_bad = v.pv_bad + 1 })
    v entries

type stats = {
  plans : int;
  certified_plans : int;
  plan_words : int;
  plan_hits : int;
  plan_misses : int;
  parse_hits : int;
  parse_misses : int;
  macro_hits : int;
  macro_misses : int;
  evictions : int;
  flows : int;
  flow_capacity : int;
  flow_hits : int;
  flow_misses : int;
  flow_evictions : int;
}

let stats t =
  with_lock t (fun () ->
      {
        plans = Lru.length t.plans.lru;
        certified_plans =
          Lru.fold
            (fun _ (cp, _) acc -> if cp.cp_cert <> None then acc + 1 else acc)
            t.plans.lru 0;
        plan_words = words_of t.plans;
        plan_hits = t.plans.hits;
        plan_misses = t.plans.misses;
        parse_hits = t.netlists.hits;
        parse_misses = t.netlists.misses;
        macro_hits = t.macros.hits;
        macro_misses = t.macros.misses;
        evictions = Lru.evictions t.plans.lru;
        flows = Lru.length t.flows.lru;
        flow_capacity = Lru.capacity t.flows.lru;
        flow_hits = t.flows.hits;
        flow_misses = t.flows.misses;
        flow_evictions = Lru.evictions t.flows.lru;
      })

let clear t =
  with_lock t (fun () ->
      Lru.clear t.netlists.lru;
      Lru.clear t.plans.lru;
      Lru.clear t.macros.lru;
      Lru.clear t.flows.lru)
