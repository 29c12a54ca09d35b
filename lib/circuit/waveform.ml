module U = Sn_numerics.Units

type t =
  | Dc of float
  | Sin of { offset : float; amplitude : float; freq : float; phase : float }
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list

let dc v = Dc v

let sin_wave ?(offset = 0.0) ?(phase = 0.0) ~amplitude ~freq () =
  if freq <= 0.0 then invalid_arg "Waveform.sin_wave: freq must be > 0";
  Sin { offset; amplitude; freq; phase }

let pulse ?(delay = 0.0) ?(rise = 1e-12) ?(fall = 1e-12) ~v1 ~v2 ~width ~period
    () =
  if width < 0.0 || period <= 0.0 then
    invalid_arg "Waveform.pulse: bad width/period";
  Pulse { v1; v2; delay; rise; fall; width; period }

let pwl points =
  if points = [] then invalid_arg "Waveform.pwl: empty point list";
  let rec strictly_increasing = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      t1 < t2 && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  if not (strictly_increasing points) then
    invalid_arg "Waveform.pwl: times must be strictly increasing";
  Pwl points

let pulse_value ~v1 ~v2 ~delay ~rise ~fall ~width ~period t =
  if t < delay then v1
  else begin
    let tau = Float.rem (t -. delay) period in
    if tau < rise then v1 +. ((v2 -. v1) *. tau /. rise)
    else if tau < rise +. width then v2
    else if tau < rise +. width +. fall then
      v2 +. ((v1 -. v2) *. (tau -. rise -. width) /. fall)
    else v1
  end

let pwl_value points t =
  let xs = Array.of_list (List.map fst points) in
  let ys = Array.of_list (List.map snd points) in
  Sn_numerics.Sweep.interp1 xs ys t

let value w t =
  match w with
  | Dc v -> v
  | Sin { offset; amplitude; freq; phase } ->
    offset +. (amplitude *. Stdlib.sin ((U.two_pi *. freq *. t) +. phase))
  | Pulse { v1; v2; delay; rise; fall; width; period } ->
    pulse_value ~v1 ~v2 ~delay ~rise ~fall ~width ~period t
  | Pwl points -> pwl_value points t

let dc_value = function
  | Dc v -> v
  | Sin { offset; _ } -> offset
  | Pulse { v1; v2; delay; rise; fall; width; period } ->
    pulse_value ~v1 ~v2 ~delay ~rise ~fall ~width ~period 0.0
  | Pwl points -> pwl_value points 0.0
