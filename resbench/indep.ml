(* Answer checks that share no code with the solver path: a hash join over
   the query atoms (never [Eval]), used to confirm that a returned
   contingency set is made of distinct endogenous facts of D and that
   removing them leaves no witness. *)

open Res_db
open Res_cq

(* Does some valuation map every atom of [q] into [facts]?  Atoms are
   joined in a greedy order (most already-bound variables first); each
   atom is probed through a hash index on its bound positions.  A failed
   sub-search is memoized on the values of the bound variables the
   remaining atoms still read, so path-shaped queries stay linear in the
   data even around high-degree hubs. *)
let has_witness (q : Query.t) (facts : Database.fact list) =
  let atoms = Array.of_list (Query.atoms q) in
  let n = Array.length atoms in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (f : Database.fact) ->
      let l = try Hashtbl.find rows f.rel with Not_found -> [] in
      Hashtbl.replace rows f.rel (Array.of_list f.tuple :: l))
    facts;
  let slot = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slot v i) (Query.vars q);
  let env = Array.make (Hashtbl.length slot) (Value.Int 0) in
  (* greedy join order *)
  let used = Array.make n false in
  let bound = Hashtbl.create 16 in
  let order =
    Array.init n (fun _ ->
        let best = ref (-1) and score = ref (-1) in
        Array.iteri
          (fun i (a : Atom.t) ->
            if not used.(i) then begin
              let s = List.length (List.filter (Hashtbl.mem bound) (Atom.vars a)) in
              if s > !score then begin
                best := i;
                score := s
              end
            end)
          atoms;
        used.(!best) <- true;
        List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars atoms.(!best));
        !best)
  in
  (* per depth: key positions (bound before), binding positions, equality
     checks inside the atom, and the index *)
  let bound_before = Array.make (n + 1) [] in
  for k = 1 to n do
    bound_before.(k) <- List.sort_uniq compare (bound_before.(k - 1) @ Atom.vars atoms.(order.(k - 1)))
  done;
  let later_vars k =
    let acc = ref [] in
    for j = k to n - 1 do
      acc := Atom.vars atoms.(order.(j)) @ !acc
    done;
    !acc
  in
  let interface =
    Array.init (n + 1) (fun k ->
        let later = later_vars k in
        List.filter (fun v -> List.mem v later) bound_before.(k)
        |> List.map (Hashtbl.find slot))
  in
  let plans =
    Array.init n (fun k ->
        let a = atoms.(order.(k)) in
        let args = Array.of_list a.args in
        let key_pos = ref [] and bind_pos = ref [] and eq_pos = ref [] in
        let first = Hashtbl.create 4 in
        Array.iteri
          (fun j v ->
            if List.mem v bound_before.(k) then key_pos := (j, Hashtbl.find slot v) :: !key_pos
            else
              match Hashtbl.find_opt first v with
              | Some j0 -> eq_pos := (j, j0) :: !eq_pos
              | None ->
                Hashtbl.replace first v j;
                bind_pos := (j, Hashtbl.find slot v) :: !bind_pos)
          args;
        let index = Hashtbl.create 1024 in
        List.iter
          (fun (t : Value.t array) ->
            if Array.length t = Array.length args
               && List.for_all (fun (j, j0) -> Value.equal t.(j) t.(j0)) !eq_pos
            then begin
              let key = List.map (fun (j, _) -> t.(j)) !key_pos in
              let l = try Hashtbl.find index key with Not_found -> [] in
              Hashtbl.replace index key (t :: l)
            end)
          (try Hashtbl.find rows a.rel with Not_found -> []);
        (!key_pos, !bind_pos, index))
  in
  let failed = Hashtbl.create 1024 in
  let rec go k =
    if k = n then true
    else begin
      let memo_key = (k, List.map (fun s -> env.(s)) interface.(k)) in
      if Hashtbl.mem failed memo_key then false
      else begin
        let key_pos, bind_pos, index = plans.(k) in
        let key = List.map (fun (_, s) -> env.(s)) key_pos in
        let cands = try Hashtbl.find index key with Not_found -> [] in
        let found =
          List.exists
            (fun (t : Value.t array) ->
              List.iter (fun (j, s) -> env.(s) <- t.(j)) bind_pos;
              go (k + 1))
            cands
        in
        if not found then Hashtbl.replace failed memo_key ();
        found
      end
    end
  in
  go 0

let fact_key (f : Database.fact) = (f.rel, f.tuple)

(* The reason a claimed answer [rho, set] is wrong, or [None] when it is
   a genuine contingency set of size rho. *)
let contingency_error (q : Query.t) (db_facts : Database.fact list) rho (set : Database.fact list) =
  let present = Hashtbl.create (List.length db_facts) in
  List.iter (fun f -> Hashtbl.replace present (fact_key f) ()) db_facts;
  let distinct = List.sort_uniq compare (List.map fact_key set) in
  if List.length set <> rho then Some (Printf.sprintf "set has %d facts, rho=%d" (List.length set) rho)
  else if List.length distinct <> rho then Some "repeated fact in the set"
  else if not (List.for_all (fun k -> Hashtbl.mem present k) distinct) then Some "fact not in D"
  else if List.exists (fun (f : Database.fact) -> Query.is_exogenous q f.rel) set then
    Some "exogenous fact in the set"
  else begin
    let removed = Hashtbl.create 16 in
    List.iter (fun k -> Hashtbl.replace removed k ()) distinct;
    let rest = List.filter (fun f -> not (Hashtbl.mem removed (fact_key f))) db_facts in
    if has_witness q rest then Some "a witness survives the removal" else None
  end

(* [R(x,y), R(y,x)]: one deletion per two-way pair {a,b} and per self-loop. *)
let perm_count (db_facts : Database.fact list) rel =
  let edges = Hashtbl.create (List.length db_facts) in
  List.iter
    (fun (f : Database.fact) ->
      match f.tuple with [ a; b ] when f.rel = rel -> Hashtbl.replace edges (a, b) () | _ -> ())
    db_facts;
  Hashtbl.fold
    (fun (a, b) () n ->
      let c = Value.compare a b in
      if c = 0 then n + 1 else if c < 0 && Hashtbl.mem edges (b, a) then n + 1 else n)
    edges 0

(* Feed the checks corrupted versions of a known-good answer; every one
   must be rejected.  Returns the list of corruptions that slipped
   through (empty on success). *)
let self_test () =
  let q = Parser.query "A(x), R(x,y), R(y,x)" in
  let db =
    Fact_syntax.facts "A(1); A(2); A(3); R(1,2); R(2,1); R(2,3); R(3,2); R(3,3); R(4,1); R(1,4)"
  in
  let good = List.map Fact_syntax.fact [ "A(1)"; "A(2)"; "A(3)" ] in
  let accepted name ok = if ok then [ name ] else [] in
  (match contingency_error q db 3 good with
   | None -> []
   | Some e -> [ "the genuine answer was rejected: " ^ e ])
  @ accepted "one fact dropped" (contingency_error q db 2 (List.tl good) = None)
  @ accepted "rho off by one" (contingency_error q db 4 good = None)
  @ accepted "fact outside D"
      (contingency_error q db 3 (Fact_syntax.fact "R(9,9)" :: List.tl good) = None)
  @ accepted "q_perm count off by one"
      (perm_count (Fact_syntax.facts "R(1,2); R(2,1); R(3,3); R(4,5)") "R" + 1 = 2)
