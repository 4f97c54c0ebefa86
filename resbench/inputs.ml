(* Seeded inputs for every workload.  Everything is a pure function of the
   run's seed, so two runs with one seed solve identical instances. *)

open Res_db
open Resilience

let rng seed tag = Random.State.make [| seed; tag |]

(* Fact text in the syntax [Fact_syntax.database] reads, one fact a line. *)
let render db =
  let b = Buffer.create (16 * Database.size db) in
  List.iter
    (fun (f : Database.fact) ->
      Buffer.add_string b f.rel;
      Buffer.add_char b '(';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Value.to_string v))
        f.tuple;
      Buffer.add_string b ")\n")
    (Database.facts db);
  Buffer.contents b

(* Inline fact list for the wire protocol: [R(1,2); R(2,3)]. *)
let inline_facts facts =
  String.concat "; "
    (List.map
       (fun (f : Database.fact) ->
         f.rel ^ "(" ^ String.concat "," (List.map Value.to_string f.tuple) ^ ")")
       facts)

let fact_string f = inline_facts [ f ]

(* [count] distinct ids drawn from [0, n). *)
let subset st ~n ~count =
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = 0 then acc
    else begin
      let x = Random.State.int st n in
      if Hashtbl.mem seen x then go acc k
      else begin
        Hashtbl.replace seen x ();
        go (x :: acc) (k - 1)
      end
    end
  in
  go [] (min count n)

let unary_rows rel ids = (rel, List.map (fun x -> [ Value.Int x ]) ids)

let with_rows db rows = Database.union db (Database.of_rows rows)

(* ---- ptime_scale: PTIME templates at scale -------------------------------- *)

type kernel =
  | Flow_kernel  (** linear flow over the columnar view (Props 12/31) *)
  | Pairs_kernel  (** two-way pair count (Prop 33, q_perm) *)
  | Aperm_kernel  (** bipartite vertex cover (Prop 33, q_a_perm) *)
  | Z3_kernel  (** bipartite vertex cover (Prop 36, z3) *)
  | Opaque  (** no public builder: solved as one call *)

type template = {
  name : string;
  query : string;
  kernel : kernel;
  gen : seed:int -> tuples:int -> Database.t;
  tuples : int;  (** size of the timed instance *)
}

let q_ac_conf ~seed ~tuples =
  let side = tuples / 6 in
  let st = rng seed 11 in
  with_rows
    (Db_gen.bipartite ~seed ~left:side ~right:side ~edges:(tuples - side) ~rel:"R")
    [
      unary_rows "A" (subset st ~n:side ~count:(side / 2));
      unary_rows "C" (subset st ~n:side ~count:(side / 2));
    ]

let power_law_with_a ~seed ~tuples =
  let nodes = max 8 (tuples / 6) in
  let st = rng seed 13 in
  with_rows
    (Db_gen.power_law ~seed ~nodes ~edges:(tuples - (nodes / 2)) ~rel:"R")
    [ unary_rows "A" (subset st ~n:nodes ~count:(nodes / 2)) ]

let q_perm ~seed ~tuples = Db_gen.power_law ~seed ~nodes:(max 8 (tuples / 5)) ~edges:tuples ~rel:"R"

let z3 ~seed ~tuples =
  (* grid edges ~ 2 * nodes; a fifth of the nodes get a loop, a third an A *)
  let rows = max 2 (int_of_float (sqrt (float_of_int tuples /. 2.6))) in
  let cols = rows + 1 in
  let nodes = rows * cols in
  let st = rng seed 17 in
  let loops = subset st ~n:nodes ~count:(nodes / 5) in
  with_rows
    (Db_gen.grid_graph ~rows ~cols ~rel:"R")
    [
      ("R", List.map (fun x -> [ Value.Int x; Value.Int x ]) loops);
      unary_rows "A" (subset st ~n:nodes ~count:(nodes / 3));
    ]

(* A(x), R(x,y,z), S(y,z): an arity-3 linear sj-free query. *)
let q_lin ~seed ~tuples =
  let st = rng seed 19 in
  let s_n = tuples / 4 and a_n = tuples / 4 in
  let r_n = tuples - s_n - a_n in
  let dom = max 4 (tuples / 8) in
  let s_pairs = Array.init s_n (fun _ -> (Random.State.int st dom, Random.State.int st dom)) in
  let r =
    List.init r_n (fun _ ->
        let y, z =
          if Random.State.int st 10 < 7 then s_pairs.(Random.State.int st s_n)
          else (Random.State.int st dom, Random.State.int st dom)
        in
        [ Value.Int (Random.State.int st dom); Value.Int y; Value.Int z ])
  in
  Database.of_rows
    [
      ("R", r);
      ("S", Array.to_list (Array.map (fun (y, z) -> [ Value.Int y; Value.Int z ]) s_pairs));
      unary_rows "A" (subset st ~n:dom ~count:(min dom a_n));
    ]

let templates =
  [
    { name = "q_ac_conf"; query = "A(x), R(x,y), R(z,y), C(z)"; kernel = Flow_kernel; gen = q_ac_conf; tuples = 40_000 };
    { name = "q_perm"; query = "R(x,y), R(y,x)"; kernel = Pairs_kernel; gen = q_perm; tuples = 65_000 };
    { name = "q_a_perm"; query = "A(x), R(x,y), R(y,x)"; kernel = Aperm_kernel; gen = power_law_with_a; tuples = 60_000 };
    { name = "z3"; query = "R(x,x), R(x,y), A(y)"; kernel = Z3_kernel; gen = z3; tuples = 70_000 };
    { name = "q_a_3perm"; query = "A(x), R(x,y), R(y,z), R(z,y)"; kernel = Opaque; gen = power_law_with_a; tuples = 14_000 };
    { name = "q_lin"; query = "A(x), R(x,y,z), S(y,z)"; kernel = Opaque; gen = q_lin; tuples = 55_000 };
  ]

let sibling_tuples = 300

(* ---- hard_exact: the paper's reductions ----------------------------------- *)

type hard = {
  family : string;
  inst : Reductions.instance;
  expect : [ `Sat of bool | `Cover of Res_graph.Vertex_cover.graph ];
      (** [`Sat s]: rho <= k iff the formula is satisfiable (s, by DPLL);
          [`Cover g]: rho is the minimum vertex cover of g *)
}

let sat_instance family build seed ~clauses =
  let f = Res_sat.Sat_gen.random_kcnf ~seed ~n_vars:3 ~n_clauses:clauses ~k:3 in
  { family; inst = build f; expect = `Sat (Res_sat.Dpll.satisfiable f) }

let random_graph st ~nodes ~edges =
  let seen = Hashtbl.create edges in
  let rec go acc k =
    if k = 0 then acc
    else begin
      let u = Random.State.int st nodes and v = Random.State.int st nodes in
      let e = (min u v, max u v) in
      if u = v || Hashtbl.mem seen e then go acc k
      else begin
        Hashtbl.replace seen e ();
        go (e :: acc) (k - 1)
      end
    end
  in
  go [] edges

(* Prop 9: a graph is a qvc database and rho is its minimum vertex cover.
   The decision threshold k plays no part in the check. *)
let vc_instance seed =
  let nodes = 40 in
  let g = random_graph (rng seed 23) ~nodes ~edges:90 in
  { family = "qvc"; inst = Reductions.vc_to_qvc g ~k:nodes; expect = `Cover g }

(* The hard_exact catalog: [catalog_size] instances of each reduction,
   from fixed formula and graph seeds.  It does not depend on the run's
   seed: solve times differ up to fourfold between formulas of one size,
   so drawing new formulas per seed would move ops_per_s by about a
   quarter from seed to seed.  The run's seed sets the order in which
   the catalog is walked. *)
let catalog_size = 16

let hard_catalog () =
  List.concat
    (List.init catalog_size (fun i ->
         [
           sat_instance "qchain" Reductions.sat3_to_chain (1000 + i) ~clauses:4;
           sat_instance "qABperm" Reductions.sat3_to_abperm (2000 + i) ~clauses:2;
           sat_instance "qtriangle" Reductions.sat3_to_triangle (3000 + i) ~clauses:2;
           vc_instance (4000 + i);
         ]))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
