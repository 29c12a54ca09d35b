(* The workloads, in the order Spec.workloads declares them. *)
let all =
  [
    Paper_figures.workload;
    Ground_whatif.workload;
    Served_mix.workload;
    Tiled_edit.workload;
  ]

let find name = List.find_opt (fun (w : Harness.workload) -> w.name = name) all
