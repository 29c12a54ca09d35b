let pi = 4.0 *. atan 1.0
let two_pi = 2.0 *. pi
let reference_impedance = 50.0

let check_positive name v =
  if v <= 0.0 || Float.is_nan v then
    invalid_arg (Printf.sprintf "Units.%s: argument must be > 0 (got %g)" name v)

let db_of_ratio r =
  check_positive "db_of_ratio" r;
  20.0 *. log10 r

let dbm_of_watts p =
  check_positive "dbm_of_watts" p;
  10.0 *. log10 (p /. 1.0e-3)

let watts_of_dbm d = 1.0e-3 *. (10.0 ** (d /. 10.0))

(* Peak sinusoid amplitude v across r dissipates v^2 / (2 r). *)
let dbm_of_vpeak ?(r = reference_impedance) v =
  check_positive "dbm_of_vpeak" v;
  dbm_of_watts (v *. v /. (2.0 *. r))

let vpeak_of_dbm ?(r = reference_impedance) d =
  sqrt (2.0 *. r *. watts_of_dbm d)

let prefixes =
  [ (1.0e-15, "f"); (1.0e-12, "p"); (1.0e-9, "n"); (1.0e-6, "u");
    (1.0e-3, "m"); (1.0, ""); (1.0e3, "k"); (1.0e6, "M");
    (1.0e9, "G"); (1.0e12, "T") ]

let pp_eng ?(unit = "") fmt v =
  if v = 0.0 then Format.fprintf fmt "0 %s" unit
  else begin
    let mag = Float.abs v in
    let scale, prefix =
      let rec pick = function
        | [] -> (1.0e12, "T")
        | (s, p) :: rest ->
          if mag < s *. 1000.0 then (s, p) else pick rest
      in
      pick prefixes
    in
    Format.fprintf fmt "%.2f %s%s" (v /. scale) prefix unit
  end

let eng ?unit v = Format.asprintf "%a" (pp_eng ?unit) v
