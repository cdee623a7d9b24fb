(* Verdict provenance explainer: read a provenance JSONL dump (written by
   chaos.exe --provenance, or streamed into a flight recorder), render the
   causal chain behind any verdict as text, JSON or DOT, and -- the part CI
   cares about -- re-validate every verdict by replaying its recorded
   evidence through the Blame calculus.

   Replay is bit-exact: a verdict node's probe children are the precise
   votes the judge counted (Blame.select_votes, after the defense knobs),
   in counting order, so grouping them by link and feeding them to
   Blame.blame_of_observations
   must reproduce the recorded blame to the last IEEE bit and the recorded
   verdict exactly. Any divergence means the protocol's provenance lies
   about what it did -- a bug, not a tolerance. The --inject-bug flag
   deliberately corrupts one vote before replay; paired with
   --expect-divergence it is the CI canary proving the validator can
   actually fail. *)

module Json = Concilium_util.Json
module Blame = Concilium_core.Blame

type node = { id : int; kind : string; fields : (string * Json.t) list; mutable children : int list }
(* children: reversed during load, restored to creation order at end *)

type graph = {
  params : (string * float) list;  (* file order *)
  nodes : (int, node) Hashtbl.t;
  order : int list;  (* node ids in file order *)
}

(* ---------- Loading ---------- *)

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  let ic = open_in path in
  let params = ref [] in
  let nodes = Hashtbl.create 1024 in
  let order = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Json.parse line with
         | Error msg -> fail "%s:%d: %s" path !lineno msg
         | Ok json -> (
             let node_id =
               (* Provenance node lines carry both "id" and "kind"; trace
                  records in a shared flight stream have an "id" of their
                  own but never a "kind". *)
               match Json.member "kind" json with
               | Some _ -> Json.member "id" json
               | None -> None
             in
             match (Json.member "param" json, Json.member "edge" json, node_id) with
             | Some name, _, _ ->
                 let name =
                   match Json.string_value name with
                   | Some s -> s
                   | None -> fail "%s:%d: param name is not a string" path !lineno
                 in
                 let value =
                   match Option.bind (Json.member "value" json) Json.to_float with
                   | Some v -> v
                   | None -> fail "%s:%d: param %s without value" path !lineno name
                 in
                 params := (name, value) :: List.remove_assoc name !params
             | None, Some pair, _ -> (
                 (* Streamed (flight-recorder) form: edges arrive as their
                    own lines, in creation order. *)
                 match Option.map (List.filter_map Json.to_int) (Json.to_list pair) with
                 | Some [ parent; child ] -> (
                     (* A flight-recorder ring can hold an edge whose
                        parent's node line was already evicted; such
                        orphans are dropped, not errors. *)
                     match Hashtbl.find_opt nodes parent with
                     | Some p -> p.children <- child :: p.children
                     | None -> ())
                 | _ -> fail "%s:%d: malformed edge" path !lineno)
             | None, None, Some id ->
                 let id =
                   match Json.to_int id with
                   | Some id -> id
                   | None -> fail "%s:%d: non-integer node id" path !lineno
                 in
                 let kind =
                   match Option.bind (Json.member "kind" json) Json.string_value with
                   | Some k -> k
                   | None -> fail "%s:%d: node %d without kind" path !lineno id
                 in
                 let fields = match json with Json.Obj fields -> fields | _ -> [] in
                 let children =
                   match Option.bind (Json.member "children" json) Json.to_list with
                   | Some kids -> List.rev (List.filter_map Json.to_int kids)
                   | None -> []
                 in
                 Hashtbl.replace nodes id { id; kind; fields; children };
                 order := id :: !order
             | None, None, None ->
                 (* Foreign line (trace record, flight-recorder header):
                    provenance dumps can share a stream with the obs sinks. *)
                 ())
       end
     done
   with End_of_file -> ());
  close_in ic;
  (* Drop references to evicted nodes along with restoring creation order.
     A full dump never has any; a flight dump's truncation stays visible
     to the validator because replaying a chain missing counted votes
     cannot reproduce the recorded blame. *)
  (* analysis: allow hashtbl-order — each node is rewritten independently
     of every other, so iteration order cannot matter. *)
  Hashtbl.iter
    (fun _ n -> n.children <- List.rev (List.filter (Hashtbl.mem nodes) n.children))
    nodes;
  { params = List.rev !params; nodes; order = List.rev !order }

let node g id =
  match Hashtbl.find_opt g.nodes id with
  | Some n -> n
  | None -> fail "provenance references unknown node %d" id

let field n name = List.assoc_opt name n.fields

let int_field n name =
  match Option.bind (field n name) Json.to_int with
  | Some v -> v
  | None -> fail "node %d (%s): missing int field %S" n.id n.kind name

let float_field n name =
  match Option.bind (field n name) Json.to_float with
  | Some v -> v
  | None -> fail "node %d (%s): missing float field %S" n.id n.kind name

let bool_field n name =
  match Option.bind (field n name) Json.to_bool with
  | Some v -> v
  | None -> fail "node %d (%s): missing bool field %S" n.id n.kind name

let string_field n name =
  match Option.bind (field n name) Json.string_value with
  | Some v -> v
  | None -> fail "node %d (%s): missing string field %S" n.id n.kind name

let verdict_ids g = List.filter (fun id -> (node g id).kind = "verdict") g.order

(* ---------- Replay validation ---------- *)

let config_of g =
  let get name default = match List.assoc_opt name g.params with Some v -> v | None -> default in
  {
    Blame.accuracy = get "accuracy" Blame.paper_config.Blame.accuracy;
    delta = get "delta" Blame.paper_config.Blame.delta;
    guilt_threshold = get "guilt_threshold" Blame.paper_config.Blame.guilt_threshold;
  }

(* The verdict's counted votes, in counting order. [flip] corrupts one
   probe's up flag (the --inject-bug canary). *)
let probe_votes g vnode ~flip =
  List.filter_map
    (fun cid ->
      let c = node g cid in
      if c.kind <> "probe" then None
      else
        let up = bool_field c "up" in
        let up = if flip = Some cid then not up else up in
        Some (int_field c "link", (int_field c "prober", up)))
    vnode.children

(* Rebuild the per-link evidence groups the judge folded over. Votes were
   recorded link by link, so consecutive same-link votes form one group; a
   link revisited later in the path (loopy adversarial routes) opens a
   fresh, identical group, exactly as the blame fold saw it. *)
let group_votes votes =
  let grouped =
    List.fold_left
      (fun acc (link, vote) ->
        match acc with
        | (l, votes) :: rest when l = link -> (l, vote :: votes) :: rest
        | _ -> (link, [ vote ]) :: acc)
      [] votes
  in
  Array.of_list (List.rev_map (fun (_, votes) -> List.rev votes) grouped)

let replay g vnode ~flip =
  let config = config_of g in
  let grouped = group_votes (probe_votes g vnode ~flip) in
  let replayed = Blame.blame_of_observations config ~grouped in
  let recorded = float_field vnode "blame" in
  let verdict = string_field vnode "verdict" in
  let exonerated = bool_field vnode "exonerated" in
  let errors = ref [] in
  if Int64.bits_of_float replayed <> Int64.bits_of_float recorded then
    errors :=
      Printf.sprintf "blame diverges: recorded %.17g, replay gives %.17g" recorded replayed
      :: !errors;
  (* An insufficient-evidence abstention never consulted the threshold, so
     blame equality is its whole replay contract. Exonerated verdicts were
     archived as innocent by the revision walk; the blame calculus itself
     said guilty, and replay must still say so. *)
  (match verdict with
  | "insufficient" -> ()
  | "guilty" | "innocent" ->
      let expected =
        if verdict = "guilty" || exonerated then Blame.Guilty else Blame.Innocent
      in
      let actual = Blame.verdict_of_blame config replayed in
      if actual <> expected then
        errors :=
          Printf.sprintf "verdict diverges: recorded %s%s, replay gives %s" verdict
            (if exonerated then " (exonerated)" else "")
            (match actual with Blame.Guilty -> "guilty" | Blame.Innocent -> "innocent")
          :: !errors
  | other -> errors := Printf.sprintf "unknown verdict kind %S" other :: !errors);
  List.rev !errors

let find_injection_target g =
  (* First guilty, non-exonerated verdict that actually counted a vote:
     flipping that vote must move the replayed blame. *)
  let rec search = function
    | [] -> None
    | id :: rest ->
        let v = node g id in
        if string_field v "verdict" = "guilty" && not (bool_field v "exonerated") then
          match List.find_opt (fun cid -> (node g cid).kind = "probe") v.children with
          | Some pid -> Some (id, pid)
          | None -> search rest
        else search rest
  in
  search (verdict_ids g)

let validate_all g ~inject_bug =
  let flip_for =
    if not inject_bug then fun _ -> None
    else
      match find_injection_target g with
      | None -> fail "--inject-bug: no guilty verdict with counted votes in %s" "input"
      | Some (vid, pid) ->
          Printf.printf "injected bug: flipped vote (probe %d) under verdict %d\n" pid vid;
          fun id -> if id = vid then Some pid else None
  in
  let checked = ref 0 in
  let divergences = ref 0 in
  List.iter
    (fun id ->
      incr checked;
      let errors = replay g (node g id) ~flip:(flip_for id) in
      if errors <> [] then begin
        incr divergences;
        List.iter (fun e -> Printf.printf "verdict %d: %s\n" id e) errors
      end)
    (verdict_ids g);
  Printf.printf "validated %d verdicts, %d divergences\n" !checked !divergences;
  !divergences

(* ---------- Rendering ---------- *)

let describe n =
  match n.kind with
  | "probe" ->
      Printf.sprintf "probe: node %d saw link %d %s at t=%.6g%s%s" (int_field n "prober")
        (int_field n "link")
        (if bool_field n "up" then "up" else "down")
        (float_field n "time")
        (if bool_field n "tapped" then " [tapped]" else "")
        (if bool_field n "forged" then " [forged]" else "")
  | "verdict" ->
      Printf.sprintf "verdict: node %d judged node %d %s%s (blame %.6g, %d usable rounds, drop t=%.6g)"
        (int_field n "judge") (int_field n "suspect") (string_field n "verdict")
        (if bool_field n "exonerated" then " after exoneration" else "")
        (float_field n "blame") (int_field n "usable_rounds") (float_field n "drop_time")
  | "accusation" ->
      Printf.sprintf "accusation: node %d formally accused node %d (blame %.6g, t=%.6g)"
        (int_field n "accuser") (int_field n "accused") (float_field n "blame")
        (float_field n "time")
  | "defense" ->
      Printf.sprintf "defense: %s removed %d votes (judge %d, suspect %d)"
        (string_field n "knob") (int_field n "removed") (int_field n "judge")
        (int_field n "suspect")
  | "tap" ->
      Printf.sprintf "tap: %s at node %d (t=%.6g)" (string_field n "firing")
        (int_field n "node") (float_field n "time")
  | "failover" ->
      Printf.sprintf "failover: %s via node %d (t=%.6g)" (string_field n "path")
        (int_field n "node") (float_field n "time")
  | "rebuttal" ->
      Printf.sprintf "rebuttal: accusation by node %d against node %d %s"
        (int_field n "accuser") (int_field n "accused") (string_field n "outcome")
  | other -> Printf.sprintf "%s node" other

(* Transitive closure of a root, ids ascending (edges only ever point to
   earlier-created nodes, so the chain is finite and cycle-free). *)
let chain g root =
  let seen = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter visit (node g id).children
    end
  in
  visit root;
  List.sort Int.compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])

let render_text g root =
  let buf = Buffer.create 1024 in
  let rec walk indent id =
    let n = node g id in
    Buffer.add_string buf (String.make indent ' ');
    Printf.bprintf buf "#%d %s\n" id (describe n);
    List.iter (walk (indent + 2)) n.children
  in
  walk 0 root;
  Buffer.contents buf

let render_json g root =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      Printf.bprintf buf {|{"param": %s, "value": %.17g}|} (Json.quote name) value;
      Buffer.add_char buf '\n')
    g.params;
  List.iter
    (fun id ->
      let n = node g id in
      let fields = List.filter (fun (name, _) -> name <> "children") n.fields in
      let fields =
        if n.children = [] then fields
        else fields @ [ ("children", Json.List (List.map (fun c -> Json.Int c) n.children)) ]
      in
      Buffer.add_string buf (Json.to_string (Json.Obj fields));
      Buffer.add_char buf '\n')
    (chain g root);
  Buffer.contents buf

let render_dot g root =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph provenance {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  let ids = chain g root in
  List.iter
    (fun id ->
      let n = node g id in
      let label = String.concat "\\\"" (String.split_on_char '"' (describe n)) in
      Printf.bprintf buf "  n%d [label=\"#%d %s\"];\n" id id label)
    ids;
  List.iter
    (fun id -> List.iter (fun c -> Printf.bprintf buf "  n%d -> n%d;\n" id c) (node g id).children)
    ids;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let list_verdicts g =
  List.iter
    (fun id ->
      let n = node g id in
      Printf.printf "#%d %s\n" id (describe n))
    (verdict_ids g)

(* ---------- Driver ---------- *)

type format = Text | Json_format | Dot

let run input verdict format validate inject_bug expect_divergence =
  try
    let g = load input in
    if validate || inject_bug || expect_divergence then begin
      let divergences = validate_all g ~inject_bug in
      if expect_divergence then
        if divergences > 0 then 0
        else begin
          print_endline "expected a divergence, found none: the validator cannot fail";
          1
        end
      else if divergences > 0 then 1
      else 0
    end
    else
      match verdict with
      | None ->
          list_verdicts g;
          0
      | Some id ->
          let n = node g id in
          if n.kind <> "verdict" && n.kind <> "accusation" then
            Printf.printf "note: node %d is a %s, rendering its chain anyway\n" id n.kind;
          print_string
            (match format with
            | Text -> render_text g id
            | Json_format -> render_json g id
            | Dot -> render_dot g id);
          0
  with Failure msg ->
    prerr_endline ("explain: " ^ msg);
    2

open Cmdliner

let input =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Provenance JSONL dump (chaos.exe --provenance, or a flight dump).")

let verdict =
  Arg.(
    value
    & opt (some int) None
    & info [ "verdict" ] ~docv:"ID"
        ~doc:
          "Render the causal chain behind this node (usually a verdict or accusation id). \
           Without it, list every verdict in the dump.")

let format =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json_format); ("dot", Dot) ]) Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Chain rendering: text (default), json, or dot.")

let validate =
  Arg.(
    value & flag
    & info [ "validate-all" ]
        ~doc:
          "Replay every verdict's recorded evidence through the Blame calculus and fail on \
           any divergence from the recorded blame or verdict.")

let inject_bug =
  Arg.(
    value & flag
    & info [ "inject-bug" ]
        ~doc:
          "Flip one counted vote before replaying (implies $(b,--validate-all)). CI pairs \
           this with $(b,--expect-divergence): the corrupted evidence must be caught.")

let expect_divergence =
  Arg.(
    value & flag
    & info [ "expect-divergence" ]
        ~doc:
          "Invert the validation exit status: succeed only if replay found at least one \
           divergence. Guards the --inject-bug canary against passing vacuously.")

let cmd =
  let doc = "Explain and re-validate Concilium verdict provenance chains" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ input $ verdict $ format $ validate $ inject_bug $ expect_divergence)

let () = exit (Cmd.eval' cmd)
