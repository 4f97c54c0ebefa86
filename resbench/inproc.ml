(* The in-process workloads: ptime_scale and hard_exact.  Both run
   sequentially on one domain, one operation at a time. *)

open Res_db
open Res_cq
open Resilience

(* The outcome of one workload run, as the result line reports it. *)
type outcome = {
  setup_s : float;
  attempted : int;
  failed : int;
  e2e : Util.metric list;
  layers : Util.metric list;
}

(* Per-layer time accumulators, summed in seconds over traced operations. *)
module Layers = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    match Hashtbl.find_opt t name with Some r -> r := !r +. v | None -> Hashtbl.replace t name (ref v)

  let timed t name f =
    let r, dt = Util.time f in
    add t name dt;
    r

  let get (t : t) name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0.
end

(* Run the set-up [repeats] times and keep the last result; each repeat
   starts from a compacted heap so that none inherits another's garbage. *)
let median_setup ~repeats f =
  let times = ref [] and last = ref None in
  for _ = 1 to repeats do
    Gc.compact ();
    let t0 = Util.now () in
    let v = f () in
    times := (Util.now () -. t0) :: !times;
    last := Some v
  done;
  (Util.median !times, Option.get !last)

(* Run [round] until [seconds] have passed and at least [min_rounds]
   rounds are done; only whole rounds are run. *)
let rounds ~seconds ~min_rounds round =
  let t0 = Util.now () in
  let r = ref 0 in
  while !r < min_rounds || Util.now () -. t0 < seconds do
    round !r;
    incr r
  done;
  Util.now () -. t0

let setup_repeats = 3

(* ==== ptime_scale ========================================================= *)

type prepared = {
  tpl : Inputs.template;
  text : string;  (** the fact text each operation parses *)
  sibling : Database.t option;  (** the template's small sibling, on its first instance *)
  q : Query.t;
}

(* Two instances of every template, from two seeds, so that one run
   averages over more than one random graph per template. *)
let copies = 2

let prepare seed =
  List.concat_map
    (fun copy ->
      List.mapi
        (fun i (tpl : Inputs.template) ->
          let s = (seed * 100) + (copy * 10) + i in
          {
            tpl;
            text = Inputs.render (tpl.gen ~seed:s ~tuples:tpl.tuples);
            sibling = (if copy = 0 then Some (tpl.gen ~seed:(s + 50) ~tuples:Inputs.sibling_tuples) else None);
            q = Parser.query tpl.query;
          })
        Inputs.templates)
    (List.init copies Fun.id)

(* One operation, the way [resilience solve --db] runs it: parse the facts
   and the query, then the deadline-aware solver with one domain. *)
let ptime_op p =
  let db = Fact_syntax.database p.text in
  let q = Parser.query p.tpl.query in
  match Solver.solve_bounded db q with
  | Solver.Done (sol, _) -> Some sol
  | Solver.Timeout _ -> None

(* One linear-order position of the flow network, read off the view's
   interned columns: live tuple ids (diagonal ones only for R(x,x)) with
   packed boundary keys, as [Res_col.Flowbuild.build] takes them. *)
let flow_layer view q (a : Atom.t) left right : Res_col.Flowbuild.layer =
  let data = Eval.view_data view a.rel in
  let live = Eval.view_live view a.rel in
  let tids =
    match a.args with
    | [ w0; w1 ] when w0 = w1 ->
      Array.of_list (List.filter (fun t -> data.col0.(t) = data.col1.(t)) (Array.to_list live))
    | _ -> live
  in
  let col var =
    match a.args with
    | [ w ] when w = var -> data.col0
    | [ w0; _ ] when w0 = var -> data.col0
    | [ _; w1 ] when w1 = var -> data.col1
    | _ -> invalid_arg "flow_layer: variable not in atom"
  in
  let keys = function
    | [] -> Array.make (Array.length tids) 0
    | [ v ] ->
      let c = col v in
      Array.map (fun t -> c.(t)) tids
    | [ v; w ] ->
      let cv = col v and cw = col w in
      Array.map (fun t -> (cv.(t) lsl 31) lor cw.(t)) tids
    | _ -> invalid_arg "flow_layer: boundary wider than two variables"
  in
  let exo = Bytes.make (Array.length tids) (if Query.is_exogenous q a.rel then '\001' else '\000') in
  { tids; src_keys = keys left; dst_keys = keys right; exo }

(* The same operation with each layer's public entry point called and
   timed in the order the solve path calls it.  Returns rho. *)
let ptime_traced (lt : Layers.t) ~arcs p =
  let db = Layers.timed lt "db.parse" (fun () -> Fact_syntax.database p.text) in
  let q = Parser.query p.tpl.query in
  let report = Layers.timed lt "core.classify" (fun () -> Classify.classify q) in
  let qc, _, _ = List.hd report.components in
  let db = Solver.extend_db_for_split db qc in
  let view () =
    match Layers.timed lt "col.intern" (fun () -> Eval.view db qc) with
    | Some v -> v
    | None -> failwith "no columnar view"
  in
  let cover (cg : Res_col.Matchbuild.cover_graph) =
    let l, r = Layers.timed lt "graph.flow" (fun () -> Res_graph.Bipartite.min_vertex_cover cg.g) in
    List.length l + List.length r
  in
  match p.tpl.kernel with
  | Inputs.Flow_kernel ->
    let v = view () in
    Layers.timed lt "col.semijoin" (fun () ->
        List.iter (fun r -> ignore (Eval.view_live v r)) (Query.relations qc));
    let atoms = Array.of_list (Option.get (Linearity.linear_order qc)) in
    let bounds = Flow.boundaries atoms in
    let net =
      Layers.timed lt "solver.build" (fun () ->
          let layers = Array.mapi (fun i a -> flow_layer v qc a bounds.(i) bounds.(i + 1)) atoms in
          Array.iter (fun (l : Res_col.Flowbuild.layer) -> arcs := !arcs + Array.length l.tids) layers;
          Res_col.Flowbuild.build layers)
    in
    Layers.timed lt "graph.flow" (fun () -> Res_col.Flowbuild.max_flow net)
  | Inputs.Pairs_kernel ->
    let v = view () in
    Layers.timed lt "solver.build" (fun () ->
        let d = Eval.view_data v "R" in
        Array.length
          (Res_col.Matchbuild.two_way (Res_col.Matchbuild.distinct_keys ~col0:d.col0 ~col1:d.col1)))
  | Inputs.Aperm_kernel ->
    let v = view () in
    let cg =
      Layers.timed lt "solver.build" (fun () ->
          let d = Eval.view_data v "R" in
          let a_ids = Res_col.Matchbuild.distinct_ids (Eval.view_data v "A").col0 in
          Res_col.Matchbuild.aperm_graph ~a_ids
            ~two_way:
              (Res_col.Matchbuild.two_way (Res_col.Matchbuild.distinct_keys ~col0:d.col0 ~col1:d.col1)))
    in
    cover cg
  | Inputs.Z3_kernel ->
    let v = view () in
    let cg =
      Layers.timed lt "solver.build" (fun () ->
          let d = Eval.view_data v "R" in
          let keys = Res_col.Matchbuild.distinct_keys ~col0:d.col0 ~col1:d.col1 in
          let a_ids = Res_col.Matchbuild.distinct_ids (Eval.view_data v "A").col0 in
          Res_col.Matchbuild.z3_graph ~diag:(Res_col.Matchbuild.diagonal keys) ~a_ids ~keys)
    in
    cover cg
  | Inputs.Opaque ->
    (* no public builder: the structural reduce is the only separable
       step; the solver call itself stays unattributed *)
    let db = Layers.timed lt "col.semijoin" (fun () -> Eval.reduce db qc) in
    Solution.value_exn (Solver.solve db qc)

(* Checks of one template, independent of the solver: every distinct
   answer is a genuine contingency set of its size, q_perm answers the
   benchmark's own pair count, and on the small sibling the solver,
   Exact and the mirrored instance agree. *)
let check_template p (answers : (int * Database.fact list) list) =
  let facts = Database.facts (Fact_syntax.database p.text) in
  let bad_answers =
    List.filter
      (fun (rho, set) ->
        Indep.contingency_error p.q facts rho set <> None
        || (p.tpl.name = "q_perm" && rho <> Indep.perm_count facts "R"))
      answers
  in
  let sibling_ok =
    match p.sibling with
    | None -> true
    | Some sibling -> (
      let sib = Solver.value sibling p.q in
      sib = Exact.value sibling p.q
      && sib = Solver.value (Solver.mirror_db sibling p.q) (Query_iso.mirror p.q)
      &&
      match Solver.solve sibling p.q with
      | Solution.Finite (rho, set) -> Indep.contingency_error p.q (Database.facts sibling) rho set = None
      | Solution.Unbreakable -> false)
  in
  (bad_answers, sibling_ok)

(* Allocation and major collections of the untimed-path operations. *)
let gc_layers ~ops ~alloc_mb ~majors =
  let n = float_of_int (max 1 ops) in
  [ Util.m "gc.alloc_mb_per_op" "MB" (alloc_mb /. n); Util.m "gc.major_per_op" "count" (float_of_int majors /. n) ]

let ptime_scale ~seed ~seconds ~trace =
  let setup_s, prepared =
    median_setup ~repeats:setup_repeats (fun () ->
        let ps = prepare seed in
        (* one untimed operation per template *)
        List.iter (fun p -> if p.sibling <> None then ignore (ptime_op p)) ps;
        ps)
  in
  let ps = Array.of_list prepared in
  let answers = Array.map (fun _ -> Hashtbl.create 4) ps in
  let lat = ref [] and traced_lat = ref [] and attempted = ref 0 and lost = ref 0 in
  let lt = Layers.create () and arcs = ref 0 and rho_mismatch = ref 0 in
  let per_tpl_ok = Array.make (Array.length ps) 0 in
  let alloc_mb = ref 0. and majors = ref 0 in
  let cpu0 = Util.self_cpu_seconds () in
  let wall =
    (* 5 rounds of 12 operations: at least 10 samples beyond the 80th
       percentile *)
    rounds ~seconds ~min_rounds:5 (fun _ ->
        Array.iteri
          (fun i p ->
            incr attempted;
            let g0 = Util.gc_mark () in
            let r, dt = Util.time (fun () -> ptime_op p) in
            let mb, mj = Util.gc_delta g0 (Util.gc_mark ()) in
            alloc_mb := !alloc_mb +. mb;
            majors := !majors + mj;
            match r with
            | Some (Solution.Finite (rho, set)) ->
              lat := dt :: !lat;
              per_tpl_ok.(i) <- per_tpl_ok.(i) + 1;
              let key = (rho, List.sort compare set) in
              Hashtbl.replace answers.(i) key
                (1 + Option.value ~default:0 (Hashtbl.find_opt answers.(i) key));
              if trace then begin
                let rho', dt' = Util.time (fun () -> ptime_traced lt ~arcs p) in
                traced_lat := dt' :: !traced_lat;
                if rho' <> rho then incr rho_mismatch
              end
            | Some Solution.Unbreakable | None -> incr lost)
          ps)
  in
  let cpu = Util.self_cpu_seconds () -. cpu0 in
  let rss = Util.vm_hwm_mb 0 in
  (* answer checks, after the clock *)
  let failed = ref !lost in
  let checks = Array.mapi (fun i p -> check_template p (Hashtbl.fold (fun k _ acc -> k :: acc) answers.(i) [])) ps in
  (* a template whose sibling check fails fails on all its instances *)
  let sibling_ok name = Array.for_all2 (fun (q : prepared) (_, ok) -> q.tpl.name <> name || ok) ps checks in
  Array.iteri
    (fun i p ->
      if not (sibling_ok p.tpl.name) then failed := !failed + per_tpl_ok.(i)
      else List.iter (fun k -> failed := !failed + Hashtbl.find answers.(i) k) (fst checks.(i)))
    ps;
  failed := !failed + !rho_mismatch;
  let ops = List.length !lat in
  let e2e =
    Util.e2e_metrics { Util.setup_s; wall_s = wall; latencies = !lat; cpu_s = cpu; rss_mb = rss; tail_p = 0.80 }
  in
  let layers =
    if not trace then []
    else begin
      let n = float_of_int (max 1 (List.length !traced_lat)) in
      let ms name = 1000. *. Layers.get lt name /. n in
      let attributed =
        List.fold_left (fun acc k -> acc +. ms k) 0.
          [ "db.parse"; "core.classify"; "col.intern"; "col.semijoin"; "solver.build"; "graph.flow" ]
      in
      [
        Util.m "db.parse_ms" "ms" (ms "db.parse");
        Util.m "core.classify_ms" "ms" (ms "core.classify");
        Util.m "col.intern_ms" "ms" (ms "col.intern");
        Util.m "col.semijoin_ms" "ms" (ms "col.semijoin");
        Util.m "solver.build_ms" "ms" (ms "solver.build");
        Util.m "graph.arcs" "count" (float_of_int !arcs /. n);
        Util.m "graph.flow_ms" "ms" (ms "graph.flow");
        Util.m "unattributed_ms" "ms" ((1000. *. Util.mean !traced_lat) -. attributed);
        Util.m "trace.overhead_ms" "ms" (1000. *. (Util.median !traced_lat -. Util.median !lat));
      ]
      @ gc_layers ~ops ~alloc_mb:!alloc_mb ~majors:!majors
    end
  in
  { setup_s; attempted = !attempted; failed = !failed; e2e; layers }

(* ==== hard_exact ========================================================== *)

let hard_exact ~seed ~seconds ~trace =
  let solve (h : Inputs.hard) =
    match Solver.solve_bounded h.inst.db h.inst.query with Solver.Done (sol, _) -> Some sol | Solver.Timeout _ -> None
  in
  let first_of_each l =
    List.filter_map
      (fun fam -> List.find_opt (fun (h : Inputs.hard) -> h.family = fam) l)
      [ "qchain"; "qABperm"; "qtriangle"; "qvc" ]
  in
  let setup_s, catalog =
    median_setup ~repeats:setup_repeats (fun () ->
        let c = Inputs.hard_catalog () in
        (* the warm-up instances do not depend on the seed, so neither
           does the set-up time *)
        List.iter (fun h -> ignore (solve h)) (first_of_each c);
        Inputs.shuffle (Inputs.rng seed 29) c)
  in
  let results = ref [] and lat = ref [] and traced_lat = ref [] and attempted = ref 0 in
  let lt = Layers.create () in
  let nodes = ref 0 and lp_calls = ref 0 and lp_prunes = ref 0 and witnesses = ref 0 and mismatch = ref 0 in
  let alloc_mb = ref 0. and majors = ref 0 in
  let cpu0 = Util.self_cpu_seconds () in
  let wall =
    (* a round is one pass over the whole catalog: 4 passes of 64 give
       at least 10 samples beyond the 95th percentile *)
    rounds ~seconds ~min_rounds:4 (fun _ ->
        List.iter
          (fun (h : Inputs.hard) ->
            incr attempted;
            let g0 = Util.gc_mark () in
            let sol, dt = Util.time (fun () -> solve h) in
            let mb, mj = Util.gc_delta g0 (Util.gc_mark ()) in
            alloc_mb := !alloc_mb +. mb;
            majors := !majors + mj;
            results := (h, sol) :: !results;
            (match sol with Some (Solution.Finite _) -> lat := dt :: !lat | _ -> ());
            if trace then begin
              let q = h.inst.query and db = h.inst.db in
              let rho, dt' =
                Util.time (fun () ->
                    let report = Layers.timed lt "core.classify" (fun () -> Classify.classify q) in
                    let qc, _, _ = List.hd report.components in
                    let ws = Layers.timed lt "col.enumerate" (fun () -> Eval.witnesses db qc) in
                    witnesses := !witnesses + List.length ws;
                    Layers.timed lt "bounds.lp" (fun () ->
                        Option.iter (fun ilp -> ignore (Res_bounds.Lower.lp ilp)) (Res_bounds.Ilp.of_instance db qc));
                    Exact.reset_stats ();
                    let o = Layers.timed lt "exact.search" (fun () -> Exact.resilience_bounded db qc) in
                    let st = Exact.last_stats () in
                    nodes := !nodes + st.nodes;
                    lp_calls := !lp_calls + st.lp_calls;
                    lp_prunes := !lp_prunes + st.lp_prunes;
                    match o with Exact.Complete s -> Solution.value s | Exact.Interrupted _ -> None)
              in
              traced_lat := dt' :: !traced_lat;
              if Option.bind sol Solution.value <> rho then incr mismatch
            end)
          catalog)
  in
  let cpu = Util.self_cpu_seconds () -. cpu0 in
  let rss = Util.vm_hwm_mb 0 in
  let covers = Hashtbl.create 8 in
  let failed =
    List.length
      (List.filter
         (fun ((h : Inputs.hard), sol) ->
           match sol with
           | Some (Solution.Finite (rho, set)) ->
             Indep.contingency_error h.inst.query (Database.facts h.inst.db) rho set <> None
             ||
             (match h.expect with
             | `Sat s -> rho <= h.inst.k <> s
             | `Cover g ->
               let c =
                 match Hashtbl.find_opt covers g with
                 | Some c -> c
                 | None ->
                   let c = Res_graph.Vertex_cover.min_cover_size g in
                   Hashtbl.replace covers g c;
                   c
               in
               rho <> c)
           | _ -> true)
         !results)
    + !mismatch
  in
  let e2e =
    Util.e2e_metrics { Util.setup_s; wall_s = wall; latencies = !lat; cpu_s = cpu; rss_mb = rss; tail_p = 0.95 }
  in
  let layers =
    if not trace then []
    else begin
      let n = float_of_int (max 1 (List.length !traced_lat)) in
      let ms name = 1000. *. Layers.get lt name /. n in
      let per x = float_of_int x /. n in
      let attributed =
        List.fold_left (fun acc k -> acc +. ms k) 0. [ "core.classify"; "col.enumerate"; "bounds.lp"; "exact.search" ]
      in
      [
        Util.m "core.classify_ms" "ms" (ms "core.classify");
        Util.m "col.enumerate_ms" "ms" (ms "col.enumerate");
        Util.m "col.witnesses" "count" (per !witnesses);
        Util.m "exact.search_ms" "ms" (ms "exact.search");
        Util.m "exact.bb_nodes" "count" (per !nodes);
        Util.m "exact.lp_calls" "count" (per !lp_calls);
        Util.m "exact.lp_prunes" "count" (per !lp_prunes);
        Util.m "bounds.lp_ms" "ms" (ms "bounds.lp");
        Util.m "unattributed_ms" "ms" ((1000. *. Util.mean !traced_lat) -. attributed);
        Util.m "trace.overhead_ms" "ms" (1000. *. (Util.median !traced_lat -. Util.median !lat));
      ]
      @ gc_layers ~ops:(List.length !lat) ~alloc_mb:!alloc_mb ~majors:!majors
    end
  in
  { setup_s; attempted = !attempted; failed; e2e; layers }
