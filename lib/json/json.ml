type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

let hex_digits = "0123456789abcdef"

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
      | c -> Buffer.add_char b c)
    s

(* Floats print by one rule: a bare integer below 1e15, else [%.15g]
   when it reads back bit-identical, else [%.17g].  [printf_digits]
   asks the C printer for the last two, which is exact and slow.
   [add_float] reaches the same bytes from V = |v| * 10^p in
   double-double arithmetic, whose error is below 2^-100 relative, and
   falls back on [printf_digits] where a fraction of V lies within 1e-6
   of a rounding tie or of the round-trip bound: there the error could
   decide, and an exact tie needs printf's round-half-even. *)

external format_float : string -> float -> string = "caml_format_float"

let printf_digits v =
  let s = format_float "%.15g" v in
  if float_of_string s = v then s else format_float "%.17g" v

(* 10^k = pow10_hi.(k) + pow10_lo.(k) exactly, k = 0..44: 10^k is a
   double up to k = 22 (5^22 < 2^53), and beyond it is the product of
   two such doubles, which fma splits without error.  Read-only. *)
let max_pow10 = 44

let pow10_hi, pow10_lo =
  let exact = Array.make 23 1.0 in
  for k = 1 to 22 do
    exact.(k) <- exact.(k - 1) *. 10.0
  done;
  let hi k = if k <= 22 then exact.(k) else exact.(22) *. exact.(k - 22) in
  let lo k = if k <= 22 then 0.0 else Float.fma exact.(22) exact.(k - 22) (-.hi k) in
  (Array.init (max_pow10 + 1) hi, Array.init (max_pow10 + 1) lo)

let e15 = 1_000_000_000_000_000
let e16 = 10 * e15
let e17 = 100 * e15

(* the [len] low decimal digits of [n >= 0] *)
let digits n len =
  let d = Bytes.create len in
  let n = ref n in
  for i = len - 1 downto 0 do
    Bytes.unsafe_set d i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  d

let add_int b n =
  let len = ref 1 and m = ref (n / 10) in
  while !m > 0 do
    incr len;
    m := !m / 10
  done;
  Buffer.add_bytes b (digits n !len)

(* [%.<prec>g] of n * 10^(x - prec + 1), 10^(prec-1) <= n <= 10^prec
   (n = 10^prec is a rounding carry into the next decade) *)
let add_g b ~prec n x =
  let n, x = if n = (if prec = 17 then e17 else e15) then (n / 10, x + 1) else (n, x) in
  let nd = ref prec and n = ref n in
  while !nd > 1 && !n mod 10 = 0 do
    decr nd;
    n := !n / 10
  done;
  let nd = !nd and d = digits !n !nd in
  if x < -4 || x >= prec then begin
    Buffer.add_char b (Bytes.get d 0);
    if nd > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_subbytes b d 1 (nd - 1)
    end;
    Buffer.add_string b (if x < 0 then "e-" else "e+");
    if abs x < 10 then Buffer.add_char b '0';
    add_int b (abs x)
  end
  else if x < 0 then begin
    Buffer.add_string b "0.";
    for _ = 2 to -x do
      Buffer.add_char b '0'
    done;
    Buffer.add_bytes b d
  end
  else if nd <= x + 1 then begin
    Buffer.add_bytes b d;
    for _ = nd to x do
      Buffer.add_char b '0'
    done
  end
  else begin
    Buffer.add_subbytes b d 0 (x + 1);
    Buffer.add_char b '.';
    Buffer.add_subbytes b d (x + 1) (nd - x - 1)
  end

(* The 17-digit scaling V = a * 10^(16 - x) of a normal [a > 0] with
   10^x <= a < 10^(x+1) as n + f, 10^16 <= n < 10^17 and 0 <= f < 1,
   then the %g digits it decides; [false] when the table cannot reach
   10^(16 - x) or a fraction lies within 1e-6 of a decision boundary *)
let add_scaled b a =
  let x = int_of_float (Float.floor (Float.log10 a)) in
  let p = 16 - x in
  if abs p > max_pow10 then false
  else begin
    let hi = pow10_hi.(abs p) and lo = pow10_lo.(abs p) in
    (* V = vh + vl: an fma two-product, or a quotient with its exact
       fma remainder *)
    let vh, vl =
      if p >= 0 then
        let ph = a *. hi in
        (ph, Float.fma a hi (-.ph) +. (a *. lo))
      else
        let q = a /. hi in
        (q, (Float.fma (-.q) hi a -. (q *. lo)) /. hi)
    in
    let fh = Float.floor vh in
    let fr = vh -. fh +. vl in
    let fl = Float.floor fr in
    let n = int_of_float fh + int_of_float fl and f = fr -. fl in
    (* log10 can miss the decade by one either way *)
    let n, f, x =
      if n >= e17 then (n / 10, (float_of_int (n mod 10) +. f) /. 10.0, x + 1)
      else if n < e16 then
        let g = 10.0 *. f in
        let d = Float.floor g in
        ((10 * n) + int_of_float d, g -. d, x - 1)
      else (n, f, x)
    in
    let r = n mod 100 in
    let f15 = (float_of_int r +. f) /. 100.0 in
    let near_tie g = Float.abs (g -. 0.5) < 1e-6 in
    if n < e16 || n >= e17 || near_tie f || near_tie f15 then false
    else begin
      let up15 = if f15 > 0.5 then 1 else 0 in
      (* the 15-digit decimal minus a, in units of V, against half the
         gap to a's neighbour on that side: a = m * 2^q with
         2^52 <= m < 2^53 lies 2^q = V / m from its neighbours, except
         that below a power of two (m = 2^52) the gap is half as wide *)
      let diff = float_of_int ((100 * up15) - r) -. f in
      let frac = Int64.to_int (Int64.bits_of_float a) land ((1 lsl 52) - 1) in
      let half = (float_of_int n +. f) /. float_of_int (2 * (frac lor (1 lsl 52))) in
      let half = if diff < 0.0 && frac = 0 then half /. 2.0 else half in
      if Float.abs (Float.abs diff -. half) < 1e-6 then false
      else begin
        if Float.abs diff < half then add_g b ~prec:15 ((n / 100) + up15) x
        else add_g b ~prec:17 (if f > 0.5 then n + 1 else n) x;
        true
      end
    end
  end

let add_float b v =
  let a = Float.abs v in
  if Float.is_integer v && a < 1e15 then begin
    if Float.sign_bit v then Buffer.add_char b '-';
    add_int b (int_of_float a)
  end
  else if not (Float.is_finite v) then Buffer.add_string b (printf_digits v)
  else begin
    (* subnormals, and |v| beyond ~1e60 or below ~1e-28, fall outside
       the table and take the C printer too *)
    let start = Buffer.length b in
    if v < 0.0 then Buffer.add_char b '-';
    if not (add_scaled b a) then begin
      Buffer.truncate b start;
      Buffer.add_string b (printf_digits v)
    end
  end

let shortest_float v =
  let b = Buffer.create 24 in
  add_float b v;
  Buffer.contents b

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
    if Float.is_nan v then Buffer.add_string b "\"nan\""
    else if v = Float.infinity then Buffer.add_string b "\"inf\""
    else if v = Float.neg_infinity then Buffer.add_string b "\"-inf\""
    else add_float b v
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        render b v)
      items;
    Buffer.add_char b ']'
  | Obj members ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        render b v)
      members;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing: recursive descent with an explicit depth bound so a
   pathological request line degrades to a structured error instead of
   blowing the stack *)

exception Fail of int * string

let max_depth = 200

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Fail (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let utf8_of_code b code =
    (* basic-plane escapes only; surrogate pairs are combined by the
       caller before reaching here *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' -> Buffer.add_char b '"'; loop ()
        | '\\' -> Buffer.add_char b '\\'; loop ()
        | '/' -> Buffer.add_char b '/'; loop ()
        | 'b' -> Buffer.add_char b '\b'; loop ()
        | 'f' -> Buffer.add_char b '\012'; loop ()
        | 'n' -> Buffer.add_char b '\n'; loop ()
        | 'r' -> Buffer.add_char b '\r'; loop ()
        | 't' -> Buffer.add_char b '\t'; loop ()
        | 'u' ->
          let code = hex4 () in
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* high surrogate: require the paired low surrogate *)
              if
                !pos + 1 < n && s.[!pos] = '\\'
                && !pos + 1 < n
                && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail "unpaired surrogate"
              end
              else fail "unpaired surrogate"
            end
            else code
          in
          utf8_of_code b code;
          loop ()
        | _ -> fail "bad escape")
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let consume p =
      while !pos < n && p s.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (fun c -> c >= '0' && c <= '9');
    if peek () = Some '.' then begin
      advance ();
      consume (fun c -> c >= '0' && c <= '9')
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      consume (fun c -> c >= '0' && c <= '9')
    | _ -> ());
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let members = ref [] in
        let rec members_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members_loop ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg at)

(* ------------------------------------------------------------------ *)
(* accessors *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_bool = function Bool v -> Some v | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let float_list v =
  match v with
  | Arr items ->
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | Num v :: rest -> collect (v :: acc) rest
      | _ -> None
    in
    collect [] items
  | _ -> None
