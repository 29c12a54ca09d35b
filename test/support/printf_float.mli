(** The reference for [Sn_json.Json.shortest_float]: the rule as the C
    printer states it, which the JSON library reaches without printf. *)

val shortest_float : float -> string
(** A bare integer when [v] is one below 1e15 ([-0] for negative
    zero), else [%.15g] when [float_of_string] reads it back
    bit-identical, else [%.17g]. *)
