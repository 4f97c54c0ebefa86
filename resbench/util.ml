(* Clocks, order statistics, process accounting and the JSON result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Quantile by linear interpolation between closest ranks (the
   "type 7" rule): smoother under small run-to-run changes than a
   nearest-rank pick. *)
let quantile xs p =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ---- /proc accounting --------------------------------------------------- *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* USER_HZ: /proc/PID/stat counts CPU time in these ticks on Linux *)
let clk_tck = 100.

(* utime + stime of a process in seconds, from /proc/PID/stat.  The
   command field may hold spaces, so fields are counted after the last
   ')'. *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some s ->
    let i = String.rindex s ')' in
    let rest = String.sub s (i + 2) (String.length s - i - 2) in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (* after the command: state is field 3, utime 14, stime 15 *)
    (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_file path with
  | None -> 0.
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

(* ---- result line -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Every digit as measured; NaN (no completed operation) as 0. *)
let json_float v =
  if Float.is_nan v then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)

(* ---- the end-to-end metric set ----------------------------------------- *)

type e2e = {
  setup_s : float;
  wall_s : float;  (** timed wall time *)
  latencies : float list;  (** seconds, completed operations only *)
  cpu_s : float;
  rss_mb : float;
  tail_p : float;  (** the workload's fixed tail percentile, as a fraction *)
}

let e2e_metrics e =
  let n = List.length e.latencies in
  (* the neighbourhood of the tail percentile, for choosing it *)
  Printf.eprintf "resbench: n=%d latency ms p50=%.2f p80=%.2f p90=%.2f p95=%.2f p98=%.2f p99=%.2f\n" n
    (1000. *. median e.latencies) (1000. *. quantile e.latencies 0.8) (1000. *. quantile e.latencies 0.9)
    (1000. *. quantile e.latencies 0.95) (1000. *. quantile e.latencies 0.98) (1000. *. quantile e.latencies 0.99);
  let per_op x = if n = 0 then 0. else x /. float_of_int n in
  [
    m "setup_s" "s" e.setup_s;
    m "ops_per_s" "1/s" (float_of_int n /. e.wall_s);
    m "latency_p50_ms" "ms" (1000. *. median e.latencies);
    m "latency_tail_ms" "ms" (1000. *. quantile e.latencies e.tail_p);
    m "cpu_ms_per_op" "ms" (1000. *. per_op e.cpu_s);
    m "peak_rss_mb" "MB" e.rss_mb;
  ]

(* ---- GC accounting for the in-process workloads ------------------------- *)

type gc_mark = { minor_words : float; major_words : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

(* Bytes allocated (minor + direct major, promotions counted once) and
   major collections between two marks. *)
let gc_delta a b =
  let words = b.minor_words -. a.minor_words +. (b.major_words -. a.major_words) -. (b.promoted -. a.promoted) in
  (words *. float_of_int (Sys.word_size / 8) /. 1048576., b.majors - a.majors)
