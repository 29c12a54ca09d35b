(* Small bounded LRU map behind every resident cache: the serving
   layer's plan, parse, macromodel and VCO-flow caches and the tile
   cache's input-key index.  Recency is a monotonic tick stamped on
   every find/add; eviction scans for the minimum — capacities here
   are single digits to low hundreds, so O(n) eviction beats the
   bookkeeping of an intrusive list.  Not thread-safe: callers hold
   their own lock. *)

type 'a entry = { value : 'a; mutable last_use : int }

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create 8; tick = 0; evictions = 0 }

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
    touch t e;
    Some e.value

let length t = Hashtbl.length t.table

let evictions t = t.evictions

let capacity t = t.capacity

let fold f t init = Hashtbl.fold (fun k e acc -> f k e.value acc) t.table init

let evict_one t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, age) when age <= e.last_use -> ()
      | _ -> victim := Some (k, e.last_use))
    t.table;
  match !victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some e ->
    touch t e;
    Hashtbl.replace t.table key { value; last_use = e.last_use }
  | None ->
    let e = { value; last_use = 0 } in
    touch t e;
    Hashtbl.replace t.table key e);
  while Hashtbl.length t.table > t.capacity do
    evict_one t
  done

let trim t ~max_entries =
  let dropped = ref 0 in
  while Hashtbl.length t.table > max 0 max_entries do
    evict_one t;
    incr dropped
  done;
  !dropped

let clear t = Hashtbl.reset t.table
