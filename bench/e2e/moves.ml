(* Port placements of the tiled_edit workload.

   The die is 400 um square on a 40x40 grid (a 10 um cell pitch) and
   is reduced as 2x2 tiles.  Four 80 um contacts sit one per tile; a
   probe straddles the die centre and never moves.  Keeping every
   coordinate on the cell pitch keeps the grid lines where they were,
   so an edit changes the content of exactly one tile.  Each contact
   stays one cell away from its tile's edges and from the probe. *)

let die = 400
let pitch = 10
let grid = die / pitch
let contact = 80
let probe = (180, 220)

type port = { name : string; high_x : bool; high_y : bool }

let ports =
  [|
    { name = "agg"; high_x = false; high_y = false };
    { name = "tap"; high_x = true; high_y = false };
    { name = "ring"; high_x = false; high_y = true };
    { name = "vic"; high_x = true; high_y = true };
  |]

(* lower-left corners a contact may take along one axis *)
let low_range = (pitch, fst probe - pitch - contact)
let high_range = (snd probe + pitch, die - pitch - contact)

let range high = if high then high_range else low_range

let positions high =
  let lo, hi = range high in
  List.init (((hi - lo) / pitch) + 1) (fun k -> lo + (k * pitch))

(* lower-left corner (x, y) per port, in um *)
type placement = (int * int) array

let initial : placement = [| (40, 40); (280, 40); (40, 280); (280, 280) |]

type t = {
  mutable current : placement;
  mutable history : placement list;  (** every placement visited *)
  seen : (int * (int * int), unit) Hashtbl.t;
      (** (port, corner) pairs already extracted: a tile holding one of
          them is in the cache *)
}

let create () =
  let seen = Hashtbl.create 64 in
  Array.iteri (fun p c -> Hashtbl.replace seen (p, c) ()) initial;
  { current = initial; history = [ initial ]; seen }

(* Move one port to a corner it has never occupied, so exactly one tile
   misses the cache.  [None] once every corner of every port is used. *)
let edit t rng =
  let fresh p =
    let port = ports.(p) in
    List.concat_map
      (fun x -> List.map (fun y -> (x, y)) (positions port.high_y))
      (positions port.high_x)
    |> List.filter (fun c -> not (Hashtbl.mem t.seen (p, c)))
  in
  let candidates =
    List.filter_map
      (fun p -> match fresh p with [] -> None | cs -> Some (p, cs))
      (List.init (Array.length ports) Fun.id)
  in
  match candidates with
  | [] -> None
  | _ ->
    let p, cs =
      List.nth candidates (Random.State.int rng (List.length candidates))
    in
    let c = List.nth cs (Random.State.int rng (List.length cs)) in
    Hashtbl.replace t.seen (p, c) ();
    let next = Array.copy t.current in
    next.(p) <- c;
    t.current <- next;
    t.history <- next :: t.history;
    Some next

(* Return to an earlier placement other than the current one: every
   tile hits the cache. *)
let revisit t rng =
  match List.filter (fun pl -> pl <> t.current) t.history with
  | [] -> None
  | earlier ->
    let pl = List.nth earlier (Random.State.int rng (List.length earlier)) in
    t.current <- pl;
    Some pl

let rect (x, y) size =
  Sn_geometry.Rect.make (float_of_int x) (float_of_int y)
    (float_of_int (x + size))
    (float_of_int (y + size))

let substrate_ports (pl : placement) =
  let module Port = Sn_substrate.Port in
  Array.to_list
    (Array.mapi
       (fun p corner ->
         Port.v ~name:ports.(p).name ~kind:Port.Resistive [ rect corner contact ])
       pl)
  @ [
      Port.v ~name:"probe" ~kind:Port.Probe
        [ rect (fst probe, fst probe) (snd probe - fst probe) ];
    ]
