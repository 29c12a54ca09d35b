(** Plain-text serialization of layouts (a minimal stand-in for GDS
    streaming, human-readable and diff-friendly).

    Format, one record per line:
    {v
    layout top=<cellname>
    cell <name>
      rect <layer> <net> <x0> <y0> <x1> <y1>
      path <layer> <net> <width> <from|-> <to|-> <x> <y> <x> <y> ...
      inst <cellname> <orientation> <dx> <dy>
    end
    v} *)

exception Parse_error of int * string
(** [Parse_error (line, message)]. *)

val to_string : Layout.t -> string
val of_string : string -> Layout.t

val load : string -> Layout.t
(** [load path] parses the file at [path].
    Raises {!Parse_error} or [Sys_error]. *)
