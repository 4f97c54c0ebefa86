(* The service workloads: service_mix drives one [resilience serve], and
   routed_mix sends the same requests through [resilience route] to two
   shards.  Closed loop: the benchmark sends its next request only after
   the previous reply. *)

open Res_db
open Res_cq
open Resilience

(* ==== child processes ===================================================== *)

(* Environment of every child: the benchmark's own pinned settings. *)
let child_env () =
  let drop =
    [ "RES_JOBS"; "RES_LEGACY_EVAL"; "RES_COL_KERNELS"; "RES_TRACE"; "RES_MINIMALIZE_CAP"; "OCAMLRUNPARAM" ]
  in
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) drop)
         | None -> true)
  |> List.cons "RES_JOBS=1"
  |> Array.of_list

type proc = { pid : int; sock : string; mutable reaped : bool }

let children : proc list ref = ref []

let spawn bin args sock =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env bin (Array.of_list (bin :: args)) (child_env ()) devnull devnull Unix.stderr in
  Unix.close devnull;
  let p = { pid; sock; reaped = false } in
  children := p :: !children;
  p

let reap_within p seconds =
  let t_end = Util.now () +. seconds in
  let rec go () =
    if p.reaped then true
    else
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        if Util.now () > t_end then false
        else begin
          Unix.sleepf 0.02;
          go ()
        end
      | _ -> p.reaped <- true; true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> p.reaped <- true; true
  in
  go ()

let kill_and_reap p =
  if not p.reaped then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.reaped <- true
  end

(* Every exit path ends here (also registered with [at_exit]). *)
let kill_all () =
  List.iter kill_and_reap !children;
  children := []

(* ==== connections with reply deadlines =================================== *)

exception Deadline

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.;
    { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
  with e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

let fill c deadline =
  let left = deadline -. Util.now () in
  if left <= 0. then raise Deadline;
  match Unix.select [ c.fd ] [] [] left with
  | [], _, _ -> raise Deadline
  | _ ->
    if c.lo = c.hi then begin
      c.lo <- 0;
      c.hi <- 0
    end;
    let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
    if n = 0 then raise End_of_file;
    c.hi <- c.hi + n

let rec read_line_acc c deadline acc =
  match Bytes.index_from_opt c.buf c.lo '\n' with
  | Some i when i < c.hi ->
    let s = Bytes.sub_string c.buf c.lo (i - c.lo) in
    c.lo <- i + 1;
    Buffer.add_string acc s;
    Buffer.contents acc
  | _ ->
    Buffer.add_subbytes acc c.buf c.lo (c.hi - c.lo);
    c.lo <- c.hi;
    fill c deadline;
    read_line_acc c deadline acc

let read_line c deadline = read_line_acc c deadline (Buffer.create 256)

let read_byte c deadline =
  if c.lo = c.hi then fill c deadline;
  let b = Bytes.get c.buf c.lo in
  c.lo <- c.lo + 1;
  Char.code b

(* A v5 frame: magic byte, LEB128 length, payload. *)
let read_frame c deadline =
  if read_byte c deadline <> Char.code Res_server.Frame.magic then failwith "not a frame";
  let rec varint shift acc =
    let b = read_byte c deadline in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint (shift + 7) acc
  in
  let len = varint 0 0 in
  let out = Buffer.create len in
  while Buffer.length out < len do
    if c.lo = c.hi then fill c deadline;
    let k = min (len - Buffer.length out) (c.hi - c.lo) in
    Buffer.add_subbytes out c.buf c.lo k;
    c.lo <- c.lo + k
  done;
  Buffer.contents out

let reply_deadline = 15.

let request c line =
  send c (line ^ "\n");
  read_line c (Util.now () +. reply_deadline)

(* Multi-line [stats/prom]: read up to the [# EOF] terminator. *)
let prom c =
  send c "stats/prom\n";
  let deadline = Util.now () +. reply_deadline in
  let rec go acc =
    let l = read_line c deadline in
    if l = Res_server.Protocol.prom_terminator then List.rev acc else go (l :: acc)
  in
  go []

let wait_ping sock =
  let t_end = Util.now () +. 30. in
  let rec go () =
    match
      let c = connect sock in
      Fun.protect ~finally:(fun () -> close c) (fun () -> request c "ping")
    with
    | "ok pong" -> ()
    | _ | (exception (Unix.Unix_error _ | Deadline | End_of_file)) ->
      if Util.now () > t_end then failwith ("no ping reply from " ^ sock);
      Unix.sleepf 0.005;
      go ()
  in
  go ()

(* ==== the request generator ============================================== *)

(* A PTIME base instance with its precomputed inline fact text. *)
type base = { bid : int; q : Query.t; qtext : string; facts : Database.fact list; ftext : string }

(* The binary templates: every request adds a binary R edge, which q_lin's
   ternary R would not take. *)
let templates = List.filter (fun (t : Inputs.template) -> t.name <> "q_lin") Inputs.templates

let make_base bid (q : Query.t) facts =
  { bid; q; qtext = Query.to_string q; facts; ftext = Inputs.inline_facts facts }

let ptime_base ~seed ~bid ~tuples i =
  let tpl = List.nth templates (i mod List.length templates) in
  make_base bid (Parser.query tpl.query) (Database.facts (tpl.gen ~seed ~tuples))

(* Gadget constants (pairs, tags) are renamed to integers so the text
   protocol carries them; a bijective renaming of constants keeps rho. *)
let intern_gadget (inst : Reductions.instance) =
  let ids = Hashtbl.create 64 in
  let id v =
    match Hashtbl.find_opt ids v with
    | Some i -> i
    | None ->
      let i = Value.Int (Hashtbl.length ids) in
      Hashtbl.replace ids v i;
      i
  in
  List.map (fun (f : Database.fact) -> { f with tuple = List.map id f.tuple }) (Database.facts inst.db)

type gadget = { g : base; k : int; sat : bool }

let gadget ~seed ~bid i =
  let f = Res_sat.Sat_gen.random_kcnf ~seed:(seed + i) ~n_vars:3 ~n_clauses:1 ~k:3 in
  let inst = (if i mod 2 = 0 then Reductions.sat3_to_triangle else Reductions.sat3_to_abperm) f in
  { g = make_base bid inst.query (intern_gadget inst); k = inst.k; sat = Res_sat.Dpll.satisfiable f }

(* A watch stream: a base and three delta batches (two deletions of
   present R facts, one insertion of a new R fact each). *)
type stream = { w : base; deltas : string list; states : Database.fact list list }

let stream ~seed ~bid i =
  let b = ptime_base ~seed ~bid ~tuples:1000 (if i mod 2 = 0 then 1 else 0) in
  let st = Inputs.rng seed (1000 + i) in
  let rec go db k acc_d acc_s =
    if k = 0 then (List.rev acc_d, List.rev acc_s)
    else begin
      let rs = Array.of_list (List.filter (fun (f : Database.fact) -> f.rel = "R") (Database.facts db)) in
      let pick () = rs.(Random.State.int st (Array.length rs)) in
      let d1 = pick () and d2 = pick () in
      let ins = Database.fact "R" [ Value.Int (Random.State.int st 200); Value.Int (Random.State.int st 200) ] in
      let ds = [ Delta.delete d1; Delta.delete d2; Delta.insert ins ] in
      let db' = Delta.apply_db db ds in
      go db' (k - 1) (String.concat "; " (List.map Delta.to_string ds) :: acc_d) (Database.facts db' :: acc_s)
    end
  in
  let deltas, states = go (Database.of_facts b.facts) 3 [] [] in
  { w = b; deltas; states }

let pool = 6

type fixture = {
  small : base array;  (** 10^2 tuples, q_a_perm and z3: solved, then asked [resp] *)
  tiny : base array;  (** 10^2 tuples, every template: batch items *)
  mid : base array;  (** 10^3 *)
  big : base array;  (** 10^4 *)
  gadgets : gadget array;
  streams : stream array;
  zoo : (string * string) array;  (** query text, expected verdict prefix *)
}

let fixture seed =
  let mk ?(tpl = Fun.id) tuples off =
    Array.init pool (fun i -> ptime_base ~seed:((seed * 97) + off + i) ~bid:(off + i) ~tuples (tpl (off + i)))
  in
  {
    (* responsibility on these two templates costs about a millisecond;
       on q_perm and q_a_3perm it varies from milliseconds to seconds
       with the instance, which would swamp the mix *)
    small = mk ~tpl:(fun i -> 2 + (i mod 2)) 100 0;
    tiny = mk 100 500;
    mid = mk 1000 100;
    (* the 10^4 slot uses the three matching kernels (~30 ms each): a
       q_a_3perm solve of that size takes ~150 ms and, at 1 request in
       70, would sit right at the 98th percentile *)
    big = mk ~tpl:(fun j -> 1 + (j mod 3)) 10_000 200;
    gadgets = Array.init pool (fun i -> gadget ~seed:(seed * 31) ~bid:(300 + i) i);
    streams = Array.init pool (fun i -> stream ~seed:((seed * 53) + i) ~bid:(400 + i) i);
    zoo =
      Zoo.all
      |> List.filter_map (fun (e : Zoo.entry) ->
             match e.expected with
             | Zoo.P when Classify.agrees_with (Classify.verdict_of e.query) e.expected ->
               Some (Query.to_string e.query, "ok PTIME")
             | Zoo.NPC when Classify.agrees_with (Classify.verdict_of e.query) e.expected ->
               Some (Query.to_string e.query, "ok NP-complete")
             | _ -> None)
      |> Array.of_list;
  }

(* An isolated edge R(u,v) over fresh constants joins no other fact in
   any of the workload's queries, so rho and the minimum sets stay those
   of the base, while the instance's digest (and so its cache key) is new. *)
let with_dangling b uid =
  let u = 10_000_000 + (2 * uid) in
  let f = Database.fact "R" [ Value.Int u; Value.Int (u + 1) ] in
  (b.facts @ [ f ], b.ftext ^ "; " ^ Inputs.fact_string f)

(* Relation and variable renaming, mirrored on even rounds: an isomorphic
   copy that must share the original's canonical cache key. *)
let renamed (q : Query.t) facts r =
  let mirror = r mod 2 = 0 in
  let rn rel = rel ^ "n" ^ string_of_int (r mod 5) in
  let flip l = if mirror && List.length l = 2 then List.rev l else l in
  let q' =
    Query.make
      ~exo:(List.map rn (Query.Sset.elements q.exo))
      (List.map (fun (a : Atom.t) -> Atom.make (rn a.rel) (flip (List.map (fun v -> v ^ "v") a.args))) q.atoms)
  in
  let facts' = List.map (fun (f : Database.fact) -> { Database.rel = rn f.rel; tuple = flip f.tuple }) facts in
  (q', facts')

(* ==== operations and their checks ======================================== *)

type expect =
  | Rho_of of {
      q : Query.t;
      facts : Database.fact list Lazy.t;
      ref_id : int;
      ref_q : Query.t;
      reference : Database.fact list Lazy.t;
    }
      (** a set-returning answer: a valid set for [(q, facts)], of the size
          rho of the reference instance [(ref_q, reference)] *)
  | Sat_gadget of { q : Query.t; facts : Database.fact list; k : int; sat : bool }
  | Items of (int * Query.t * Database.fact list) list  (** batch items: reference ids *)
  | Verdict of string
  | Contingency of int option
  | Closed

type op = {
  kind : string;
  mutable latency : float;
  mutable reply : string option;  (** None: no reply before the deadline *)
  mutable items : int list option;  (** decoded bulk reply *)
  mutable traced : bool;  (** sent in a round with layer replays *)
  expect : expect;
}

let field key s =
  let k = key ^ "=" in
  let kl = String.length k in
  let rec find i =
    if i + kl > String.length s then None
    else if String.sub s i kl = k && (i = 0 || s.[i - 1] = ' ') then begin
      let j = try String.index_from s (i + kl) ' ' with Not_found -> String.length s in
      Some (String.sub s (i + kl) (j - i - kl))
    end
    else find (i + 1)
  in
  find 0

let set_of s =
  match String.index_opt s '{' with
  | None -> []
  | Some i ->
    let j = String.index_from s i '}' in
    let body = String.trim (String.sub s (i + 1) (j - i - 1)) in
    if body = "" then [] else List.map Fact_syntax.fact (String.split_on_char ';' body)

let rho_of_reply s = Option.bind (field "rho" s) int_of_string_opt

(* Reference answers, memoized per reference instance: a from-scratch
   [Solver.solve] in this process. *)
let reference_rho = Hashtbl.create 64

let ref_rho id q facts =
  match Hashtbl.find_opt reference_rho id with
  | Some r -> r
  | None ->
    let r = Solution.value (Solver.solve (Database.of_facts facts) q) in
    Hashtbl.replace reference_rho id r;
    r

(* Validity verdicts, memoized per (query, instance content, answer):
   watch states and undecorated bases repeat from round to round. *)
let valid_sets = Hashtbl.create 64

let check_set q facts rho set =
  let key = (Query.to_string q, Digest.string (Marshal.to_string facts []), rho, List.sort compare set) in
  match Hashtbl.find_opt valid_sets key with
  | Some ok -> ok
  | None ->
    let ok = Indep.contingency_error q facts rho set = None in
    Hashtbl.replace valid_sets key ok;
    ok

let op_ok op =
  match (op.reply, op.expect) with
  | None, _ -> false
  | Some r, Rho_of { q; facts; ref_id; ref_q; reference } -> (
    match rho_of_reply r with
    | Some rho ->
      String.starts_with ~prefix:"ok " r
      && ref_rho ref_id ref_q (Lazy.force reference) = Some rho
      && check_set q (Lazy.force facts) rho (set_of r)
    | None -> false)
  | Some r, Sat_gadget { q; facts; k; sat } -> (
    match rho_of_reply r with
    | Some rho -> rho <= k = sat && check_set q facts rho (set_of r)
    | None -> false)
  | Some r, Items items ->
    let got =
      match op.items with
      | Some l -> List.map Option.some l
      | None ->
        if not (String.starts_with ~prefix:"ok " r) then []
        else
          String.split_on_char ';' (String.sub r 3 (String.length r - 3))
          |> List.filter (fun s -> String.trim s <> "")
          |> List.map (fun s -> rho_of_reply (String.trim s))
    in
    List.length got = List.length items
    && List.for_all2 (fun g (id, q, facts) -> g <> None && g = ref_rho id q facts) got items
  | Some r, Verdict prefix -> String.starts_with ~prefix r
  | Some r, Contingency c -> (
    match field "contingency" r with
    | Some "none" -> c = None
    | Some k -> int_of_string_opt k = c
    | None -> false)
  | Some r, Closed -> String.starts_with ~prefix:"ok " r && String.ends_with ~suffix:"closed" r

(* ==== per-layer replays (traced rounds only) ============================== *)

module L = Inproc.Layers

let replay_body lt body =
  match String.index_opt body '|' with
  | None -> None
  | Some i ->
    let q = L.timed lt "db.parse" (fun () -> Parser.query (String.sub body 0 i)) in
    let db =
      L.timed lt "db.parse" (fun () ->
          Database.of_facts (Fact_syntax.facts (String.sub body (i + 1) (String.length body - i - 1))))
    in
    let k = L.timed lt "engine.canon" (fun () -> Res_engine.Canon.keyed q) in
    ignore (L.timed lt "engine.digest" (fun () -> Res_engine.Canon.instance_digest k q db));
    ignore (L.timed lt "core.classify" (fun () -> Classify.classify q));
    Some (q, db)

(* ==== a connection's closed loop ========================================= *)

type client = {
  front : string;  (** socket of the process the load goes to *)
  fx : fixture;
  routed : bool;
  trace : bool;
  lt : L.t;
  sessions : (int, Res_inc.Session.t) Hashtbl.t;
  mutable traced_requests : int;
}

(* After a missing reply the connection may still carry the late reply:
   start a new one.  If even that fails the dead connection stays, and
   every later request on it fails at once until the run ends. *)
let reconnect cl conn =
  close !conn;
  try conn := connect cl.front with Unix.Unix_error _ -> ()

let run_op cl conn ~traced op line =
  let t0 = Util.now () in
  (match request !conn line with
  | r ->
    op.latency <- Util.now () -. t0;
    op.reply <- Some r
  | exception (Deadline | End_of_file | Unix.Unix_error _) -> reconnect cl conn);
  op.traced <- traced;
  if traced then begin
    cl.traced_requests <- cl.traced_requests + 1;
    ignore (L.timed cl.lt "server.parse" (fun () -> Res_server.Protocol.parse line))
  end;
  op

let mk kind expect = { kind; latency = 0.; reply = None; items = None; traced = false; expect }

let body b ftext = b.qtext ^ " | " ^ ftext

let solve_op cl conn ~traced ~kind (b : base) uid =
  let facts, ftext = with_dangling b uid in
  let line = "solve " ^ body b ftext in
  let op =
    run_op cl conn ~traced
      (mk kind (Rho_of { q = b.q; facts = lazy facts; ref_id = b.bid; ref_q = b.q; reference = lazy b.facts }))
      line
  in
  if traced then begin
    ignore (replay_body cl.lt (body b ftext));
    match op.reply with
    | Some r when rho_of_reply r <> None ->
      let sol = Solution.Finite (Option.get (rho_of_reply r), set_of r) in
      ignore (L.timed cl.lt "server.encode" (fun () -> Res_server.Protocol.solution ~cached:false sol))
    | _ -> ()
  end;
  (op, facts)

(* One round: 14 requests in seven blocks.  Requests inside a block
   depend on earlier replies: the [resp] fact comes from the solve's set,
   deltas go to the registered watch. *)
let round cl conn ~c ~r =
  let fx = cl.fx in
  let traced = cl.trace && r mod 2 = 1 in
  let uid slot = (((c * 100_000) + r) * 8) + slot + 1_000 in
  let pick a = a.((r + (c * 3)) mod Array.length a) in
  let small = pick fx.small and mid = pick fx.mid and big = pick fx.big in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  (* a PTIME solve at 10^2 tuples, then the responsibility of a fact of
     its returned set *)
  let small_block () =
    let s_op, s_facts = solve_op cl conn ~traced ~kind:"solve" small (uid 0) in
    push s_op;
    let fact, expect =
      match Option.map set_of s_op.reply with
      | Some (f :: _) -> (f, Contingency (Option.map (fun x -> x - 1) (Option.bind s_op.reply rho_of_reply)))
      | _ -> (List.hd s_facts, Contingency None)
    in
    let resp_body = body small (Inputs.inline_facts s_facts) in
    push (run_op cl conn ~traced (mk "resp" expect) ("resp " ^ Inputs.fact_string fact ^ " | " ^ resp_body));
    if traced then ignore (replay_body cl.lt resp_body)
  in
  (* 10^3 tuples, then a renamed copy that must hit the cache *)
  let mid_block () =
    let m_op, m_facts = solve_op cl conn ~traced ~kind:"solve" mid (uid 1) in
    push m_op;
    let q', f' = renamed mid.q m_facts r in
    push
      (run_op cl conn ~traced
         (mk "renamed" (Rho_of { q = q'; facts = lazy f'; ref_id = mid.bid; ref_q = mid.q; reference = lazy mid.facts }))
         ("solve " ^ Query.to_string q' ^ " | " ^ Inputs.inline_facts f'))
  in
  let big_block () = push (fst (solve_op cl conn ~traced ~kind:"solve" big (uid 2))) in
  (* a small hard gadget (hard lane), then its renamed copy *)
  let gadget_block () =
    let gd = pick fx.gadgets in
    let g_facts, g_text = with_dangling gd.g (uid 3) in
    push
      (run_op cl conn ~traced
         (mk "solve" (Sat_gadget { q = gd.g.q; facts = g_facts; k = gd.k; sat = gd.sat }))
         ("solve " ^ body gd.g g_text));
    let gq', gf' = renamed gd.g.q g_facts r in
    push
      (run_op cl conn ~traced
         (mk "renamed" (Sat_gadget { q = gq'; facts = gf'; k = gd.k; sat = gd.sat }))
         ("solve " ^ Query.to_string gq' ^ " | " ^ Inputs.inline_facts gf'))
  in
  let classify_block () =
    let zq, prefix = fx.zoo.(((r * 2) + c) mod Array.length fx.zoo) in
    push (run_op cl conn ~traced (mk "classify" (Verdict prefix)) ("classify " ^ zq));
    if traced then ignore (L.timed cl.lt "core.classify" (fun () -> Classify.classify (Parser.query zq)))
  in
  (* three 10^2-tuple instances in one batch; every other routed batch
     goes as a binary bulk frame *)
  let batch_block () =
    let items =
      List.init 3 (fun j ->
          let b = fx.tiny.((r + c + j + 1) mod pool) in
          let facts, ftext = with_dangling b (uid (4 + j)) in
          (b, facts, ftext))
    in
    let expect = Items (List.map (fun ((b : base), _, _) -> (b.bid, b.q, b.facts)) items) in
    if cl.routed && r mod 2 = 1 then begin
      let op = mk "bulk" expect in
      let req =
        Res_server.Frame.Bulk
          {
            timeout_ms = None;
            instances =
              List.map
                (fun ((b : base), facts, _) ->
                  { Res_engine.Batch.label = ""; query = b.q; db = Database.of_facts facts })
                items;
          }
      in
      let payload = Res_server.Frame.encode_request req in
      let frame =
        let buf = Buffer.create (String.length payload + 8) in
        Buffer.add_char buf Res_server.Frame.magic;
        Res_server.Frame.write_varint buf (String.length payload);
        Buffer.add_string buf payload;
        Buffer.contents buf
      in
      let t0 = Util.now () in
      (match
         send !conn frame;
         read_frame !conn (Util.now () +. reply_deadline)
       with
      | reply -> (
        op.latency <- Util.now () -. t0;
        match Res_server.Frame.decode_reply reply with
        | Ok (Res_server.Frame.Items its) ->
          op.reply <- Some "";
          op.items <- Some (List.map (function Res_server.Frame.Solved { rho; _ } -> rho | _ -> -1) its);
          if traced then
            L.timed cl.lt "shard.frame" (fun () ->
                ignore (Res_server.Frame.decode_request payload);
                ignore (Res_server.Frame.decode_reply (Res_server.Frame.encode_reply (Res_server.Frame.Items its))))
        | _ -> ())
      | exception (Deadline | End_of_file | Unix.Unix_error _ | Failure _) -> reconnect cl conn);
      op.traced <- traced;
      if traced then cl.traced_requests <- cl.traced_requests + 1;
      push op
    end
    else begin
      let bodies = List.map (fun ((b : base), _, ftext) -> body b ftext) items in
      push (run_op cl conn ~traced (mk "batch" expect) ("batch " ^ String.concat " ;; " bodies));
      if traced then List.iter (fun b -> ignore (replay_body cl.lt b)) bodies
    end
  in
  (* watch: register, three delta batches, close *)
  let watch_block () =
    let s = pick fx.streams in
    let reg =
      run_op cl conn ~traced
        (mk "watch"
           (Rho_of { q = s.w.q; facts = lazy s.w.facts; ref_id = s.w.bid; ref_q = s.w.q; reference = lazy s.w.facts }))
        ("watch register " ^ body s.w s.w.ftext)
    in
    push reg;
    let id = Option.bind (Option.bind reg.reply (field "watch")) int_of_string_opt in
    if traced then
      Option.iter
        (fun (q, db) ->
          let sess = L.timed cl.lt "inc.register" (fun () -> Res_inc.Session.create db q) in
          Option.iter (fun id -> Hashtbl.replace cl.sessions id sess) id)
        (replay_body cl.lt (body s.w s.w.ftext));
    List.iteri
      (fun k (d, state) ->
        let op =
          mk "watch_delta"
            (Rho_of
               { q = s.w.q; facts = lazy state; ref_id = (s.w.bid * 10) + k + 1; ref_q = s.w.q; reference = lazy state })
        in
        let line = Printf.sprintf "watch delta %d %s" (Option.value id ~default:0) d in
        push (run_op cl conn ~traced op line);
        if traced then
          Option.iter
            (fun sess -> ignore (L.timed cl.lt "inc.delta" (fun () -> Res_inc.Session.apply sess (Delta.parse d))))
            (Option.bind id (Hashtbl.find_opt cl.sessions)))
      (List.combine s.deltas s.states);
    push (run_op cl conn ~traced (mk "watch_close" Closed) (Printf.sprintf "watch close %d" (Option.value id ~default:0)));
    Option.iter (Hashtbl.remove cl.sessions) id
  in
  List.iter (fun b -> b ()) [ small_block; mid_block; big_block; gadget_block; classify_block; batch_block; watch_block ];
  List.rev !ops

(* ==== server-side statistics ============================================= *)

let stats_kv c =
  let line = request c "stats" in
  String.split_on_char ' ' line
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let stat kv key = Option.value ~default:0. (Option.bind (List.assoc_opt key kv) float_of_string_opt)

(* A histogram from [stats/prom]: cumulative (upper bound, count) pairs,
   sum in seconds, count. *)
type hist = { buckets : (float * float) list; sum : float; count : float }

let histogram lines name =
  let pre = "resilience_" ^ String.map (fun ch -> if ch = '.' then '_' else ch) name in
  let value l = float_of_string (List.nth (String.split_on_char ' ' l) 1) in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let buckets =
    List.filter_map
      (fun l ->
        if starts (pre ^ "_bucket{le=\"") l then begin
          let i = String.index l '"' in
          let j = String.index_from l (i + 1) '"' in
          let le = String.sub l (i + 1) (j - i - 1) in
          Some ((if le = "+Inf" then infinity else float_of_string le), value l)
        end
        else None)
      lines
  in
  let one suffix = List.fold_left (fun acc l -> if starts (pre ^ suffix ^ " ") l then value l else acc) 0. lines in
  { buckets; sum = one "_sum"; count = one "_count" }

let hist_diff a b =
  if List.length a.buckets <> List.length b.buckets then b
  else {
    buckets = List.map2 (fun (le, x) (_, y) -> (le, y -. x)) a.buckets b.buckets;
    sum = b.sum -. a.sum;
    count = b.count -. a.count;
  }

(* Prometheus-style quantile: linear interpolation inside the bucket
   holding the rank. *)
let hist_quantile h p =
  if h.count <= 0. then 0.
  else begin
    let rank = p *. h.count in
    let rec go prev_le prev_c = function
      | [] -> prev_le
      | (le, c) :: rest ->
        if c >= rank then
          if le = infinity then prev_le
          else prev_le +. ((le -. prev_le) *. (rank -. prev_c) /. Float.max 1e-9 (c -. prev_c))
        else go le c rest
    in
    go 0. 0. h.buckets
  end

type snapshot = { kv : (string * string) list; prom : string list; cpu : float }

let snapshot p =
  let kv, prom =
    try
      let c = connect p.sock in
      Fun.protect ~finally:(fun () -> close c) @@ fun () ->
      let kv = stats_kv c in
      (kv, prom c)
    with Deadline | End_of_file | Unix.Unix_error _ -> ([], [])
  in
  { kv; prom; cpu = Util.cpu_seconds p.pid }

(* ==== set-up, timed phase, teardown ====================================== *)

type fleet = { front : proc; servers : proc list; all : proc list }

let start_fleet ~bin ~dir ~routed =
  let serve name = spawn bin [ "serve"; "--socket"; Filename.concat dir name ] (Filename.concat dir name) in
  if not routed then begin
    let s = serve "s0.sock" in
    wait_ping s.sock;
    { front = s; servers = [ s ]; all = [ s ] }
  end
  else begin
    let s1 = serve "s1.sock" and s2 = serve "s2.sock" in
    wait_ping s1.sock;
    wait_ping s2.sock;
    let rs = Filename.concat dir "r.sock" in
    let r = spawn bin [ "route"; "--socket"; rs; "--shard"; s1.sock; "--shard"; s2.sock ] rs in
    wait_ping rs;
    { front = r; servers = [ s1; s2 ]; all = [ r; s1; s2 ] }
  end

(* [shutdown] to the front process (the router forwards it fleet-wide),
   then to any survivor; kill whatever has not exited shortly after. *)
let stop_fleet f =
  let bye p =
    try
      let c = connect p.sock in
      Fun.protect ~finally:(fun () -> close c) (fun () -> ignore (request c "shutdown"))
    with Deadline | End_of_file | Unix.Unix_error _ -> ()
  in
  bye f.front;
  List.iter (fun p -> if not (reap_within p 3.) then bye p) f.all;
  List.iter (fun p -> if not (reap_within p 3.) then kill_and_reap p) f.all;
  children := List.filter (fun p -> not (List.memq p f.all)) !children

(* Per-layer figures of a traced run.  Request means of the replayed
   public entry points, the servers' own histograms and counters (diffed
   over the timed phase), and the client's latencies. *)
let layer_metrics ~routed ~cl ~good ~snap0 ~snap1 =
  let ms name = 1000. *. L.get cl.lt name /. float_of_int (max 1 cl.traced_requests) in
  let diffs = List.combine snap0 snap1 in
  (* with a router, the first process is the router and the rest shards *)
  let front = List.hd diffs and servers = if routed then List.tl diffs else diffs in
  let counter key = List.fold_left (fun acc (a, b) -> acc +. stat b.kv key -. stat a.kv key) 0. servers in
  let hist_of (a, b) name = hist_diff (histogram a.prom name) (histogram b.prom name) in
  let merged name =
    match List.map (fun d -> hist_of d name) servers with
    | [] -> assert false
    | h :: rest ->
      List.fold_left
        (fun x y ->
          {
            buckets = List.map2 (fun (le, p) (_, q) -> (le, p +. q)) x.buckets y.buckets;
            sum = x.sum +. y.sum;
            count = x.count +. y.count;
          })
        h rest
  in
  let mean_ms h = 1000. *. h.sum /. Float.max 1. h.count in
  let req = merged "latency.request" in
  let handle_ms = mean_ms req in
  let front_ms = mean_ms (hist_of front "latency.request") in
  let client_mean = 1000. *. Util.mean (List.map (fun o -> o.latency) good) in
  let p50_of pred = 1000. *. Util.median (List.filter_map (fun o -> if pred o then Some o.latency else None) good) in
  let hits = counter "engine.solve_hits" and misses = counter "engine.solve_misses" in
  let rhits = counter "engine.resp_hits" and rmisses = counter "engine.resp_misses" in
  let replayed =
    List.fold_left
      (fun acc k -> acc +. ms k)
      0.
      [ "server.parse"; "db.parse"; "engine.canon"; "engine.digest"; "core.classify"; "server.encode"; "inc.register"; "inc.delta"; "shard.frame" ]
  in
  [
    Util.m "db.parse_ms" "ms" (ms "db.parse");
    Util.m "core.classify_ms" "ms" (ms "core.classify");
    Util.m "engine.canon_ms" "ms" (ms "engine.canon");
    Util.m "engine.digest_ms" "ms" (ms "engine.digest");
    Util.m "engine.solve_hits" "count" hits;
    Util.m "engine.solve_misses" "count" misses;
    Util.m "engine.resp_hits" "count" rhits;
    Util.m "engine.resp_misses" "count" rmisses;
    Util.m "engine.hit_ratio" "ratio" ((hits +. rhits) /. Float.max 1. (hits +. misses +. rhits +. rmisses));
    Util.m "inc.register_ms" "ms" (ms "inc.register");
    Util.m "inc.delta_ms" "ms" (ms "inc.delta");
    Util.m "server.parse_ms" "ms" (ms "server.parse");
    Util.m "server.encode_ms" "ms" (ms "server.encode");
    Util.m "server.handle_ms" "ms" handle_ms;
    Util.m "server.wire_queue_ms" "ms" (client_mean -. front_ms);
    Util.m "server.solve_p50_ms" "ms" (1000. *. hist_quantile (merged "latency.solve") 0.5);
    Util.m "server.resp_p50_ms" "ms" (1000. *. hist_quantile (merged "latency.resp") 0.5);
    Util.m "server.batch_p50_ms" "ms" (p50_of (fun o -> o.kind = "batch" || o.kind = "bulk"));
    Util.m "server.watch_delta_p50_ms" "ms" (1000. *. hist_quantile (merged "latency.watch_delta") 0.5);
    Util.m "unattributed_ms" "ms" (handle_ms -. replayed);
    Util.m "trace.overhead_ms" "ms" (p50_of (fun o -> o.traced) -. p50_of (fun o -> not o.traced));
  ]
  @
  if not routed then []
  else begin
    let counts = List.map (fun d -> (hist_of d "latency.request").count) servers in
    let total = List.fold_left ( +. ) 0. counts in
    let a, b = front in
    [
      Util.m "shard.hop_ms" "ms" (client_mean -. (1000. *. req.sum /. Float.max 1. (float_of_int (List.length good))));
      Util.m "shard.frame_ms" "ms" (ms "shard.frame");
      Util.m "shard.max_shard_share" "ratio" (List.fold_left Float.max 0. counts /. Float.max 1. total);
      Util.m "shard.retries" "count"
        (stat b.kv "route.retries" -. stat a.kv "route.retries" +. stat b.kv "route.failovers"
       -. stat a.kv "route.failovers");
    ]
  end

(* One closed-loop connection.  All of a process's requests run on one
   OCaml domain, so two connections queue behind each other on the
   runtime lock of the server (or of the router): with two, service_mix's
   throughput moved by up to a factor 1.8 between runs of one seed and
   routed_mix's tail by a fifth.  36 rounds of 14 requests give at least
   504 operations, so the 98th percentile has at least 10 samples beyond
   it. *)
let min_rounds = 36

let run ~bin ~dir ~routed ~seed ~seconds ~trace =
  (* a server that dies must fail requests, not end the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let setup () =
    let fx = fixture seed in
    let f = start_fleet ~bin ~dir ~routed in
    (* one untimed operation of every kind *)
    let cl = { front = f.front.sock; fx; routed; trace = false; lt = L.create (); sessions = Hashtbl.create 4; traced_requests = 0 } in
    let conn = ref (connect f.front.sock) in
    ignore (round cl conn ~c:9 ~r:1);
    close !conn;
    (fx, f)
  in
  let times = ref [] and last = ref None in
  for i = 1 to Inproc.setup_repeats do
    let t0 = Util.now () in
    let v = setup () in
    times := (Util.now () -. t0) :: !times;
    if i < Inproc.setup_repeats then stop_fleet (snd v) else last := Some v
  done;
  let setup_s = Util.median !times in
  let fx, fleet = Option.get !last in
  let snap0 = List.map snapshot fleet.all in
  let cl = { front = fleet.front.sock; fx; routed; trace; lt = L.create (); sessions = Hashtbl.create 4; traced_requests = 0 } in
  let results = ref [] in
  let t0 = Util.now () in
  let conn = ref (connect fleet.front.sock) in
  let r = ref 0 in
  while !r < min_rounds || Util.now () -. t0 < seconds do
    results := List.rev_append (round cl conn ~c:0 ~r:!r) !results;
    incr r
  done;
  close !conn;
  let wall = Util.now () -. t0 in
  let snap1 = List.map snapshot fleet.all in
  let rss = List.fold_left (fun acc p -> acc +. Util.vm_hwm_mb p.pid) 0. fleet.all in
  stop_fleet fleet;
  let cpu = List.fold_left2 (fun acc a b -> acc +. (b.cpu -. a.cpu)) 0. snap0 snap1 in
  (* answer checks, after the clock *)
  let ops = List.map (fun o -> (o, op_ok o)) !results in
  let good = List.filter_map (fun (o, ok) -> if ok then Some o else None) ops in
  (* name every failed operation kind on stderr, with one example reply *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (o, ok) ->
      if not ok then begin
        let n, ex = Option.value ~default:(0, o.reply) (Hashtbl.find_opt seen o.kind) in
        Hashtbl.replace seen o.kind (n + 1, ex)
      end)
    ops;
  Hashtbl.iter
    (fun kind (n, ex) ->
      let ex = match ex with None -> "(no reply)" | Some r -> if String.length r > 160 then String.sub r 0 160 else r in
      Printf.eprintf "resbench: %d failed %s operations, e.g. reply %S\n" n kind ex)
    seen;
  let lat = List.map (fun o -> o.latency) good in
  List.iter
    (fun kind ->
      match List.filter (fun o -> o.kind = kind) good with
      | [] -> ()
      | l ->
        let xs = List.map (fun o -> 1000. *. o.latency) l in
        Printf.eprintf "resbench: %-12s n=%4d p50=%8.3f ms p90=%8.3f ms\n" kind (List.length l) (Util.median xs)
          (Util.quantile xs 0.9))
    [ "solve"; "renamed"; "classify"; "resp"; "batch"; "bulk"; "watch"; "watch_delta"; "watch_close" ];
  let attempted = List.length ops in
  let failed = attempted - List.length good in
  let e2e =
    Util.e2e_metrics { Util.setup_s; wall_s = wall; latencies = lat; cpu_s = cpu; rss_mb = rss; tail_p = 0.98 }
  in
  let layers = if trace then layer_metrics ~routed ~cl ~good ~snap0 ~snap1 else [] in
  { Inproc.setup_s; attempted; failed; e2e; layers }
