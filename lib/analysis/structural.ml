module P = Sn_engine.Stamp_plan
module Mna = Sn_engine.Mna
module Diag = Sn_engine.Diag

(* row -> matched column and column -> matched row, [-1] if unmatched *)
type matching = { m_row : int array; m_col : int array }

(* Kuhn's augmenting-path maximum bipartite matching, rows in
   ascending index, so every reported unmatched unknown is
   deterministic *)
let maximum_matching (pat : P.pattern) =
  let n = pat.P.pat_dim in
  let m_row = Array.make (max n 1) (-1) in
  let m_col = Array.make (max n 1) (-1) in
  (* greedy seed before augmenting: match each row to its diagonal
     when the pattern has one (an MNA row can almost always pivot for
     its own unknown), else to any still-free column.  Augmenting from
     a partial matching still yields a maximum one, but the seed
     leaves the augmentation almost nothing to repair — without it,
     chain-structured patterns (long RC ladders) drive the naive
     row-order scan quadratic *)
  for r = 0 to n - 1 do
    let cols = pat.P.pat_adj.(r) in
    if m_col.(r) = -1 && Array.exists (fun c -> c = r) cols then begin
      m_row.(r) <- r;
      m_col.(r) <- r
    end
    else begin
      let n_cols = Array.length cols in
      let k = ref 0 in
      while m_row.(r) = -1 && !k < n_cols do
        let c = cols.(!k) in
        if m_col.(c) = -1 then begin
          m_row.(r) <- c;
          m_col.(c) <- r
        end;
        incr k
      done
    end
  done;
  (* [visited.(c) = stamp] marks column [c] as seen during the current
     augmentation, avoiding an O(n) clear per row *)
  let visited = Array.make (max n 1) (-1) in
  let rec augment stamp r =
    let cols = pat.P.pat_adj.(r) in
    let n_cols = Array.length cols in
    let rec try_col k =
      if k >= n_cols then false
      else begin
        let c = cols.(k) in
        if visited.(c) <> stamp then begin
          visited.(c) <- stamp;
          if m_col.(c) = -1 || augment stamp m_col.(c) then begin
            m_row.(r) <- c;
            m_col.(c) <- r;
            true
          end
          else try_col (k + 1)
        end
        else try_col (k + 1)
      end
    in
    try_col 0
  in
  for r = 0 to n - 1 do
    if m_row.(r) = -1 then ignore (augment r r)
  done;
  { m_row; m_col }

let unmatched_columns m =
  let out = ref [] in
  for c = Array.length m.m_col - 1 downto 0 do
    if m.m_col.(c) = -1 then out := c :: !out
  done;
  !out

(* the columns reachable from unmatched column [c0] by alternating
   paths: the Dulmage-Mendelsohn underdetermined block holding [c0].
   Any of them may surface as the solver's singular pivot, so the
   diagnostic reports the whole group *)
let alternating_columns (pat : P.pattern) m c0 =
  let n = pat.P.pat_dim in
  (* transpose adjacency: column -> rows with a structural entry there *)
  let col_rows = Array.make n [] in
  for r = 0 to n - 1 do
    Array.iter (fun c -> col_rows.(c) <- r :: col_rows.(c)) pat.P.pat_adj.(r)
  done;
  let seen = Array.make n false in
  let rec walk acc = function
    | [] -> acc
    | c :: rest ->
      if seen.(c) then walk acc rest
      else begin
        seen.(c) <- true;
        (* free edge into any row touching c, then the matching edge
           out of that row to its matched column *)
        let next =
          List.filter_map
            (fun r ->
              let c' = m.m_row.(r) in
              if c' >= 0 && not seen.(c') then Some c' else None)
            col_rows.(c)
        in
        walk (c :: acc) (next @ rest)
      end
  in
  walk [] [ c0 ] |> List.sort_uniq compare

type deficiency = {
  analyses : string;
  unknown : Diag.unknown;
  group : Diag.unknown list;
}

(* unmatched columns of one pattern, with their dependent groups *)
let pattern_deficiencies pat =
  let m = maximum_matching pat in
  List.map
    (fun c -> (c, alternating_columns pat m c))
    (unmatched_columns m)

let deficiencies (ctx : Rule.context) =
  let plan = Lazy.force ctx.Rule.plan in
  if P.dim plan = 0 then []
  else begin
    let mna = P.mna plan in
    let name slot =
      match Diag.unknown_of_slot mna slot with
      | Some u -> u
      | None -> Diag.Node (Printf.sprintf "#%d" slot)
    in
    let dc = pattern_deficiencies (P.dc_pattern plan) in
    let ac = pattern_deficiencies (P.ac_pattern plan) in
    let slots =
      List.sort_uniq compare (List.map fst dc @ List.map fst ac)
    in
    List.map
      (fun slot ->
        let in_dc = List.assoc_opt slot dc and in_ac = List.assoc_opt slot ac in
        let analyses, group =
          match (in_dc, in_ac) with
          | Some g, None -> ("dc", g)
          | None, Some g -> ("ac", g)
          | Some g1, Some g2 ->
            ("dc and ac", List.sort_uniq compare (g1 @ g2))
          | None, None -> assert false
        in
        {
          analyses;
          unknown = name slot;
          group = List.map name group;
        })
      slots
  end

let check ctx =
  List.map
    (fun d ->
      let subject =
        match d.unknown with
        | Diag.Node n -> Rule.Node n
        | Diag.Branch b -> Rule.Element b
      in
      let qualify = function
        | Diag.Node n -> "node " ^ n
        | Diag.Branch b -> "branch of " ^ b
      in
      Rule.diag Rule.Error "structural-singular" subject
        "the %s MNA pattern is structurally singular: no equation can \
         pivot for %s (dependent group: %s); solving would fail with a \
         singular pivot"
        d.analyses (qualify d.unknown)
        (String.concat ", " (List.map qualify d.group)))
    (deficiencies ctx)
