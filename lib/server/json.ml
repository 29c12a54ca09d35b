(* The project-wide JSON value type (the [snoise.json] library), kept
   reachable as [Sn_server.Json] with the same type. *)
include Sn_json.Json
