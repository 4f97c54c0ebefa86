(* The benchmark's entry point: one workload, one seed, one result line.

     resbench.exe --workload NAME --seed N --seconds S --trace 0|1 --bin PATH

   [--bin] is the [resilience] CLI the service workloads start as child
   processes.  The last line of standard output is the JSON result. *)

let workloads = [ "ptime_scale"; "hard_exact"; "service_mix"; "routed_mix" ]

(* Every per-layer metric, in the order of BENCHMARK.json.  A traced run
   prints all of them; a layer that is not on the workload's path reads 0
   (resbench/README.md lists which layer each workload exercises). *)
let per_layer =
  [ ("db.parse_ms", "ms"); ("core.classify_ms", "ms"); ("col.intern_ms", "ms"); ("col.semijoin_ms", "ms");
    ("col.enumerate_ms", "ms"); ("col.witnesses", "count"); ("solver.build_ms", "ms"); ("graph.arcs", "count");
    ("graph.flow_ms", "ms"); ("exact.search_ms", "ms"); ("exact.bb_nodes", "count"); ("exact.lp_calls", "count");
    ("exact.lp_prunes", "count"); ("bounds.lp_ms", "ms"); ("engine.canon_ms", "ms"); ("engine.digest_ms", "ms");
    ("engine.solve_hits", "count"); ("engine.solve_misses", "count"); ("engine.resp_hits", "count");
    ("engine.resp_misses", "count"); ("engine.hit_ratio", "ratio"); ("inc.register_ms", "ms");
    ("inc.delta_ms", "ms"); ("server.parse_ms", "ms"); ("server.encode_ms", "ms"); ("server.handle_ms", "ms");
    ("server.wire_queue_ms", "ms"); ("server.solve_p50_ms", "ms"); ("server.resp_p50_ms", "ms");
    ("server.batch_p50_ms", "ms"); ("server.watch_delta_p50_ms", "ms"); ("shard.hop_ms", "ms");
    ("shard.frame_ms", "ms"); ("shard.max_shard_share", "ratio"); ("shard.retries", "count");
    ("gc.alloc_mb_per_op", "MB"); ("gc.major_per_op", "count"); ("unattributed_ms", "ms");
    ("trace.overhead_ms", "ms") ]

let all_layers (measured : Util.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Util.metric) -> x.name = name) measured with
      | Some x -> x
      | None -> Util.m name unit_ 0.)
    per_layer

let usage () =
  prerr_endline
    "usage: resbench.exe --workload (ptime_scale|hard_exact|service_mix|routed_mix) --seed N \
     --seconds S --trace 0|1 --bin PATH";
  exit 2

(* Settings the program reads from the environment.  The wrapper script
   pins them before this process starts; a run that finds them set
   otherwise would not measure the default configuration, so it stops. *)
let pinned = [ ("RES_JOBS", Some "1"); ("RES_LEGACY_EVAL", None); ("RES_COL_KERNELS", None);
               ("RES_TRACE", None); ("RES_MINIMALIZE_CAP", None); ("OCAMLRUNPARAM", None) ]

let check_env () =
  List.iter
    (fun (k, want) ->
      if Sys.getenv_opt k <> want then begin
        Printf.eprintf "resbench: %s must be %s (run through resbench/run.py)\n" k
          (match want with Some v -> "set to " ^ v | None -> "unset");
        exit 2
      end)
    pinned

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = int_of_string (get "--seed") in
  let seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  if not (List.mem workload workloads) then usage ();
  check_env ();
  (* the run record *)
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%b\n" workload seed seconds trace;
  Printf.printf "run: nproc=%s ocamlopt=%s commit=%s\n%!" (command_output "nproc")
    (command_output "ocamlfind ocamlopt -version")
    (match List.assoc_opt "--commit" o with Some c -> c | None -> "unknown");
  let rejected = Indep.self_test () in
  List.iter (fun r -> Printf.printf "self-test: corrupted answer accepted: %s\n" r) rejected;
  let out =
    match workload with
    | "ptime_scale" -> Inproc.ptime_scale ~seed ~seconds ~trace
    | "hard_exact" -> Inproc.hard_exact ~seed ~seconds ~trace
    | _ ->
      let dir = get "--tmp" in
      at_exit Service.kill_all;
      (* a stopped run still stops its servers *)
      List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
      Fun.protect ~finally:Service.kill_all (fun () ->
          Service.run ~bin:(get "--bin") ~dir ~routed:(workload = "routed_mix") ~seed ~seconds ~trace)
  in
  Printf.printf "run: attempted=%d failed=%d self_test=%s\n" out.attempted out.failed
    (if rejected = [] then "passed" else "FAILED");
  print_endline
    (Util.result_line
       ~correct:(rejected = [])
       ~attempted:out.attempted ~failed:out.failed
       (if trace then all_layers out.layers else out.e2e))
