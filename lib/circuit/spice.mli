(** SPICE-like netlist text format.

    Supported cards:
    {v
    * comment
    R<name> n1 n2 <value>
    C<name> n1 n2 <value>
    L<name> n1 n2 <value>
    V<name> np nn [DC <v>] [AC <mag>] [SIN(<off> <ampl> <freq> [<phase>])]
                  [PULSE(<v1> <v2> <delay> <rise> <fall> <width> <period>)]
                  [PWL(<t1> <v1> <t2> <v2> ...)]
    I<name> np nn ... (same stimulus syntax)
    G<name> np nn cp cn <gm>          (VCCS)
    E<name> np nn cp cn <gain>        (VCVS)
    M<name> d g s b <model> W=<w> L=<l> [M=<mult>]
    Y<name> n1 n2 <model> [M=<mult>]  (varactor)
    .model <name> nmos|pmos  vt0= kp= gamma= phi= lambda= cdb= csb= cgs= cgd=
    .model <name> varactor   cmin= cmax= v0= vslope=
    .title <text>
    .end
    v}

    Values accept engineering suffixes
    [f p n u m k meg g t] (case-insensitive); lines starting with [+]
    continue the previous card.

    Lint-suppression pragmas and tool directives ride in comments:
    {v
    *%snoise ignore <code>[,<code>...] [<subject>]
    *%snoise extract <key>=<value> ...
    *%snoise reduce <key>=<value> ...
    v}
    and surface as {!Netlist.pragmas} / {!Netlist.directives}; every
    parsed element also records its {!Netlist.source_loc} so analysis
    diagnostics can point at the offending deck line. *)

exception Parse_error of int * string

val of_string : ?file:string -> string -> Netlist.t
(** Raises {!Parse_error} or {!Netlist.Invalid}.  [?file] (default
    ["<string>"]) names the source in the recorded element
    locations. *)

val to_string : Netlist.t -> string
(** Emits a netlist (with the [.model] cards and [%snoise] marker
    lines it needs) that {!of_string} parses back to the same elements:
    every value prints as {!Sn_json.Json.shortest_float} prints it,
    which reads back bit-identical, and a name that does not start with its card's type
    letter gets that letter prefixed ([itc_R1] is written [ritc_R1]),
    since the reader takes the type from the first letter. *)

val load : string -> Netlist.t
