(* Transitive effect inference over the call graph.

   Each function gets a summary: a bitmask over a small effect lattice, a
   first-witness origin per flag (an intrinsic line or the callee the flag
   arrived through — enough to print a call-graph path), and two parameter
   fixpoints: which parameters are drawn from as PRNGs and which are written
   through.  Intrinsic effects come from textual scans of the scrubbed body
   (assignments, stdlib mutators, I/O and domain primitives, resolved
   [Prng] draws); transitive effects flow caller-ward over resolved calls
   until a fixed point.

   Two module families are sanctioned and masked during propagation: the
   deterministic runtime itself ([Concilium_util.Prng] / [Pool]), and
   [concilium_obs] writes-through-argument (the per-shard Collector sink is
   the one place a pooled task may write caller-visible state). *)

type flag =
  | Reads_mutable
  | Writes_arg
  | Writes_global
  | Io
  | Randomness
  | Ambient_randomness
  | Domain_primitive

let flag_bit = function
  | Reads_mutable -> 1
  | Writes_arg -> 2
  | Writes_global -> 4
  | Io -> 8
  | Randomness -> 16
  | Ambient_randomness -> 32
  | Domain_primitive -> 64

let all_flags =
  [ Reads_mutable; Writes_arg; Writes_global; Io; Randomness; Ambient_randomness; Domain_primitive ]

let flag_name = function
  | Reads_mutable -> "reads-mutable"
  | Writes_arg -> "writes-arg"
  | Writes_global -> "writes-global"
  | Io -> "io"
  | Randomness -> "randomness"
  | Ambient_randomness -> "ambient-randomness"
  | Domain_primitive -> "domain-primitive"

let has mask flag = mask land flag_bit flag <> 0
let flags_of_mask mask = List.filter (has mask) all_flags

type origin =
  | Intrinsic of int * string  (* line, note *)
  | Via of Callgraph.key * int  (* callee the flag arrived through, call line *)

type summary = {
  s_key : Callgraph.key;
  s_def : Source.def;
  s_module : Source.module_info;
  s_calls : Callgraph.call list;  (* empty for the trusted runtime *)
  s_refs : Callgraph.key list;  (* every definition the body names, trusted or not *)
  s_locals : (string * Source.binding_kind) list;
  s_params : string list;
  mutable s_mask : int;
  mutable s_origins : (flag * origin) list;  (* first witness per flag *)
  mutable s_prng_params : string list;
  mutable s_write_params : string list;
}

type t = {
  e_table : (string, summary) Hashtbl.t;  (* Callgraph.key_to_string *)
  e_order : summary list;  (* sorted by key *)
  e_calls_resolved : int;
}

let find t key = Hashtbl.find_opt t.e_table (Callgraph.key_to_string key)

(* The deterministic runtime: its internals use domains and mutate PRNG
   state by design, under contracts the analysis models at call sites
   instead (split-derivation, per-slot writes). *)
let trusted (key : Callgraph.key) =
  key.Callgraph.k_lib = "concilium_util"
  && (key.Callgraph.k_mod = "Prng" || key.Callgraph.k_mod = "Pool")

let sanctioned_sink (key : Callgraph.key) = key.Callgraph.k_lib = "concilium_obs"

(* ---------- Name classification ---------- *)

type cls =
  | Local_created
  | Local_opaque
  | Param of string
  | Global_value
  | Global_fn
  | Unresolved

(* Classify an identifier against a scope: local lets (one-level alias
   chasing), parameters, then the module's own top-level definitions. *)
let classify ~locals ~params ~(m : Source.module_info) name =
  let module_def name =
    List.find_opt (fun (d : Source.def) -> d.Source.d_name = name) m.Source.m_defs
  in
  let rec go depth name =
    if depth > 5 then Local_opaque
    else
      match List.assoc_opt name locals with
      | Some Source.Created -> Local_created
      | Some Source.Opaque -> Local_opaque
      | Some (Source.Alias target) | Some (Source.Indexed (target, _)) ->
          if target = name then Local_opaque else go (depth + 1) target
      | None -> (
          if List.mem name params then Param name
          else
            match module_def name with
            | Some d -> if d.Source.d_is_value then Global_value else Global_fn
            | None -> Unresolved)
  in
  go 0 name

(* ---------- Intrinsic scans ---------- *)

type write = { w_target : string; w_line : int; w_index : string list; w_note : string }

let assign_re = Str.regexp ":=\\|<-"
let incr_re = Str.regexp "\\b\\(incr\\|decr\\)[ \t]+\\([A-Za-z_][A-Za-z0-9_'.]*\\)"

let mutator_re =
  Str.regexp "\\b\\(Hashtbl\\|Buffer\\|Array\\|Bytes\\|Queue\\|Stack\\|Atomic\\)\\.\\([a-z_]+\\)"

(* (module, function) -> indices of the mutated positional arguments *)
let mutator_targets m fn =
  match (m, fn) with
  | "Hashtbl", ("replace" | "add" | "remove" | "reset" | "clear" | "filter_map_inplace") -> [ 0 ]
  | ( "Buffer",
      ( "add_char" | "add_string" | "add_bytes" | "add_buffer" | "add_substring" | "add_subbytes"
      | "add_utf_8_uchar" | "clear" | "reset" | "truncate" ) ) ->
      [ 0 ]
  | "Array", ("set" | "fill" | "unsafe_set") -> [ 0 ]
  | "Array", ("sort" | "stable_sort" | "fast_sort") -> [ 1 ]
  | "Array", "blit" -> [ 2 ]
  | "Bytes", ("set" | "fill" | "unsafe_set") -> [ 0 ]
  | "Bytes", ("blit" | "blit_string") -> [ 2 ]
  | "Queue", ("push" | "add" | "transfer") -> [ 1 ]
  | "Queue", ("pop" | "take" | "clear") -> [ 0 ]
  | "Stack", "push" -> [ 1 ]
  | "Stack", ("pop" | "clear") -> [ 0 ]
  | "Atomic", ("set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr" | "decr") -> [ 0 ]
  | _ -> []

(* The identifier path ending just before position [at] (the left-hand side
   of a [:=] or [<-]): walk back over identifier characters, dots and
   brackets, then take the leading identifier. *)
let lvalue_before body at =
  let j = ref (at - 1) in
  while !j >= 0 && (body.[!j] = ' ' || body.[!j] = '\n') do
    decr j
  done;
  let k = ref !j in
  let continue = ref true in
  while !continue && !k >= 0 do
    let c = body.[!k] in
    if Source.is_ident_char c || c = '.' || c = '(' || c = ')' || c = '!' then decr k
    else continue := false
  done;
  if !j < 0 || !j <= !k then None
  else
    let text = String.sub body (!k + 1) (!j - !k) in
    match Source.read_ident text 0 with
    | Some (head, _) ->
        let index =
          match Str.search_forward (Str.regexp_string ".(") text 0 with
          | exception Not_found -> []
          | dot ->
              Source.idents_of_text (String.sub text dot (String.length text - dot))
        in
        Some (head, text, index)
    | None -> None

let search_all pattern body handle =
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match Str.search_forward pattern body !pos with
    | exception Not_found -> continue := false
    | at ->
        let matched_end = Str.match_end () in
        handle at;
        pos := max matched_end (at + 1)
  done

(* All textual writes in a scrubbed body: [:=]/[<-] assignments,
   [incr]/[decr], and stdlib mutator calls.  [from_line] is the body's
   first source line. *)
let scan_writes ~from_line body =
  let writes = ref [] in
  search_all assign_re body (fun at ->
      match lvalue_before body at with
      | Some (head, text, index) when Source.is_lower head.[0] ->
          writes :=
            {
              w_target = head;
              w_line = Callgraph.line_of_pos body from_line at;
              w_index = index;
              w_note = Printf.sprintf "assignment to %s" text;
            }
            :: !writes
      | _ -> ());
  search_all incr_re body (fun at ->
      let target = Str.matched_group 2 body in
      match Source.read_ident target 0 with
      | Some (head, _) when Source.is_lower head.[0] ->
          writes :=
            {
              w_target = head;
              w_line = Callgraph.line_of_pos body from_line at;
              w_index = [];
              w_note = Printf.sprintf "incr/decr of %s" target;
            }
            :: !writes
      | _ -> ());
  search_all mutator_re body (fun at ->
      let m = Str.matched_group 1 body in
      let fn = Str.matched_group 2 body in
      let after = Str.match_end () in
      let indices = mutator_targets m fn in
      if indices <> [] then begin
        let atoms =
          List.filter (fun (a : Source.atom) -> a.Source.a_label = None) (Source.parse_atoms body after)
        in
        List.iter
          (fun index ->
            match List.nth_opt atoms index with
            | Some atom -> (
                match atom.Source.a_head with
                | Some head when Source.is_lower head.[0] ->
                    writes :=
                      {
                        w_target = head;
                        w_line = Callgraph.line_of_pos body from_line at;
                        w_index = atom.Source.a_index_idents;
                        w_note = Printf.sprintf "%s.%s on %s" m fn atom.Source.a_text;
                      }
                      :: !writes
                | _ -> ())
            | None -> ())
          indices
      end);
  List.rev !writes

let io_re =
  Str.regexp
    ("\\b\\(print_endline\\|print_string\\|print_newline\\|print_char\\|print_int\\|print_float\\|"
   ^ "prerr_endline\\|prerr_string\\|prerr_newline\\|output_string\\|output_char\\|output_bytes\\|"
   ^ "open_in\\|open_out\\|close_in\\|close_out\\|input_line\\|really_input\\|read_line\\|"
   ^ "Printf\\.printf\\|Printf\\.eprintf\\|Printf\\.fprintf\\|Format\\.printf\\|Format\\.eprintf\\|"
   ^ "Out_channel\\.\\|In_channel\\.\\|Sys\\.command\\|Sys\\.getenv\\|Sys\\.file_exists\\|"
   ^ "Sys\\.readdir\\|Sys\\.remove\\|Sys\\.rename\\|Sys\\.mkdir\\|Unix\\.\\|stdout\\b\\|stderr\\b\\)")

let domain_re = Str.regexp "\\b\\(Domain\\.\\|Mutex\\.\\|Condition\\.\\|Semaphore\\.\\|Atomic\\.\\)"
let ambient_re = Str.regexp "\\bRandom\\."
let reads_re = Str.regexp "![A-Za-z_]\\|\\.("

(* First match of [pattern] as (line, matched text), if any. *)
let scan_first pattern ~from_line body =
  match Str.search_forward pattern body 0 with
  | exception Not_found -> None
  | at -> Some (Callgraph.line_of_pos body from_line at, Str.matched_string body)

let prng_creation_fns = [ "of_seed"; "of_string_seed" ]

let is_prng_draw (key : Callgraph.key) =
  key.Callgraph.k_lib = "concilium_util"
  && key.Callgraph.k_mod = "Prng"
  && not (List.mem key.Callgraph.k_fn prng_creation_fns)

(* ---------- Argument-to-parameter matching ---------- *)

(* Pair call-site atoms with the callee parameter names they feed: labelled
   atoms by label, positional atoms in order against unlabelled parameter
   groups.  Optional parameters a call omits shift the positional map — an
   accepted imprecision for this analysis. *)
let match_args atoms (params : Source.param list) =
  let labelled =
    List.filter_map
      (fun (a : Source.atom) ->
        match a.Source.a_label with
        | Some label -> (
            match
              List.find_opt (fun (p : Source.param) -> p.Source.p_label = Some label) params
            with
            | Some p -> Some (a, p.Source.p_names)
            | None -> None)
        | None -> None)
      atoms
  in
  let positional_atoms = List.filter (fun (a : Source.atom) -> a.Source.a_label = None) atoms in
  let positional_params = List.filter (fun (p : Source.param) -> p.Source.p_label = None) params in
  let rec zip atoms params =
    match (atoms, params) with
    | a :: atoms, (p : Source.param) :: params -> (a, p.Source.p_names) :: zip atoms params
    | _, _ -> []
  in
  labelled @ zip positional_atoms positional_params

(* ---------- Summary construction ---------- *)

let add_flag s flag origin =
  if not (has s.s_mask flag) then begin
    s.s_mask <- s.s_mask lor flag_bit flag;
    s.s_origins <- s.s_origins @ [ (flag, origin) ]
  end

let add_param field s name =
  match field with
  | `Prng -> if not (List.mem name s.s_prng_params) then s.s_prng_params <- s.s_prng_params @ [ name ]
  | `Write ->
      if not (List.mem name s.s_write_params) then s.s_write_params <- s.s_write_params @ [ name ]

let intrinsic_pass s =
  let body = s.s_def.Source.d_body in
  let from_line = s.s_def.Source.d_line in
  let cls = classify ~locals:s.s_locals ~params:s.s_params ~m:s.s_module in
  List.iter
    (fun w ->
      let origin = Intrinsic (w.w_line, w.w_note) in
      match cls w.w_target with
      | Local_created -> ()
      | Param p ->
          add_flag s Writes_arg origin;
          add_param `Write s p
      | Global_value -> add_flag s Writes_global origin
      | Local_opaque | Global_fn | Unresolved -> add_flag s Writes_arg origin)
    (scan_writes ~from_line body);
  (match scan_first io_re ~from_line body with
  | Some (line, text) -> add_flag s Io (Intrinsic (line, Printf.sprintf "I/O via %s" text))
  | None -> ());
  (match scan_first domain_re ~from_line body with
  | Some (line, text) ->
      add_flag s Domain_primitive (Intrinsic (line, Printf.sprintf "domain primitive %s" text))
  | None -> ());
  (match scan_first ambient_re ~from_line body with
  | Some (line, _) ->
      add_flag s Randomness (Intrinsic (line, "Stdlib.Random draw"));
      add_flag s Ambient_randomness (Intrinsic (line, "Stdlib.Random is process-global"))
  | None -> ());
  (match scan_first reads_re ~from_line body with
  | Some (line, _) -> add_flag s Reads_mutable (Intrinsic (line, "mutable read"))
  | None -> ());
  (* Resolved Prng draws: a draw mutates the generator, so its provenance
     decides between sanctioned (split-derived, passed in) and ambient. *)
  List.iter
    (fun (c : Callgraph.call) ->
      if is_prng_draw c.Callgraph.c_callee then begin
        let fn = c.Callgraph.c_callee.Callgraph.k_fn in
        let target =
          List.find_opt (fun (a : Source.atom) -> a.Source.a_label = None) c.Callgraph.c_atoms
        in
        let note head =
          Printf.sprintf "Prng.%s draws from %s" fn head
        in
        let origin head = Intrinsic (c.Callgraph.c_line, note head) in
        match target with
        | Some atom -> (
            match atom.Source.a_head with
            | Some head -> (
                add_flag s Randomness (origin head);
                match cls head with
                | Param p -> add_param `Prng s p
                | Global_value ->
                    add_flag s Ambient_randomness
                      (Intrinsic (c.Callgraph.c_line, note head ^ ", a module-level generator"))
                | Local_created | Local_opaque | Global_fn | Unresolved -> ())
            | None -> add_flag s Randomness (origin atom.Source.a_text))
        | None -> add_flag s Randomness (origin "?")
      end)
    s.s_calls

(* Effects a caller inherits from this callee. *)
let propagation_mask (g : summary) =
  if trusted g.s_key then 0
  else if sanctioned_sink g.s_key then g.s_mask land lnot (flag_bit Writes_arg)
  else g.s_mask

let transitive_pass t =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun s ->
        if not (trusted s.s_key) then
          List.iter
            (fun (c : Callgraph.call) ->
              match find t c.Callgraph.c_callee with
              | None -> ()
              | Some g ->
                  let incoming = propagation_mask g land lnot s.s_mask in
                  if incoming <> 0 then begin
                    changed := true;
                    List.iter
                      (fun flag ->
                        add_flag s flag (Via (g.s_key, c.Callgraph.c_line)))
                      (flags_of_mask incoming)
                  end;
                  if not (trusted g.s_key) then
                    List.iter
                      (fun ((atom : Source.atom), names) ->
                        match atom.Source.a_head with
                        | Some head -> (
                            match classify ~locals:s.s_locals ~params:s.s_params ~m:s.s_module head with
                            | Param p ->
                                let feeds field = List.exists (fun n -> List.mem n field) names in
                                if feeds g.s_prng_params && not (List.mem p s.s_prng_params) then begin
                                  add_param `Prng s p;
                                  changed := true
                                end;
                                if
                                  (not (sanctioned_sink g.s_key))
                                  && feeds g.s_write_params
                                  && not (List.mem p s.s_write_params)
                                then begin
                                  add_param `Write s p;
                                  changed := true
                                end
                            | _ -> ())
                        | None -> ())
                      (match_args c.Callgraph.c_atoms g.s_def.Source.d_params))
            s.s_calls)
      t.e_order
  done

let compute (program : Callgraph.program) =
  let table = Hashtbl.create 512 in
  let order = ref [] in
  let calls_resolved = ref 0 in
  List.iter
    (fun (m : Source.module_info) ->
      List.iter
        (fun (d : Source.def) ->
          let key =
            {
              Callgraph.k_lib = m.Source.m_library;
              Callgraph.k_mod = m.Source.m_name;
              Callgraph.k_fn = d.Source.d_name;
            }
          in
          let locals = Source.local_bindings d.Source.d_body in
          let params = List.concat_map (fun (p : Source.param) -> p.Source.p_names) d.Source.d_params in
          let refs =
            let shadows = List.map fst locals @ params in
            let calls, _ =
              Callgraph.scan_body ~scope:(Callgraph.scope_of_def d) program m
                ~from_line:d.Source.d_line ~locals:shadows d.Source.d_body
            in
            (* drop self-recursion edges: they add no information and
               would put a cycle in every witness trail *)
            List.filter (fun (c : Callgraph.call) -> c.Callgraph.c_callee <> key) calls
          in
          let calls = if trusted key then [] else refs in
          calls_resolved := !calls_resolved + List.length calls;
          let s =
            {
              s_key = key;
              s_def = d;
              s_module = m;
              s_calls = calls;
              s_refs = List.map (fun (c : Callgraph.call) -> c.Callgraph.c_callee) refs;
              s_locals = locals;
              s_params = params;
              s_mask = 0;
              s_origins = [];
              s_prng_params = [];
              s_write_params = [];
            }
          in
          Hashtbl.replace table (Callgraph.key_to_string key) s;
          order := s :: !order)
        m.Source.m_defs)
    program.Callgraph.p_modules;
  let order =
    List.sort (fun a b -> Callgraph.key_compare a.s_key b.s_key) !order
  in
  let t = { e_table = table; e_order = order; e_calls_resolved = !calls_resolved } in
  List.iter (fun s -> if not (trusted s.s_key) then intrinsic_pass s) order;
  transitive_pass t;
  t

(* ---------- Witness trails ---------- *)

let step_string (s : summary) suffix =
  Printf.sprintf "%s (%s:%d)%s" (Callgraph.display s.s_key) s.s_module.Source.m_path
    s.s_def.Source.d_line suffix

(* The chain of calls along which [flag] reached [s], innermost last. *)
let trail t (s : summary) flag =
  let rec go depth s =
    if depth > 24 then [ step_string s " ... (trail truncated)" ]
    else
      match List.assoc_opt flag s.s_origins with
      | Some (Intrinsic (line, note)) ->
          [ Printf.sprintf "%s: %s at %s:%d" (Callgraph.display s.s_key) note s.s_module.Source.m_path line ]
      | Some (Via (callee, line)) -> (
          let step =
            Printf.sprintf "%s calls %s at %s:%d" (Callgraph.display s.s_key)
              (Callgraph.display callee) s.s_module.Source.m_path line
          in
          match find t callee with
          | Some g -> step :: go (depth + 1) g
          | None -> [ step ])
      | None -> [ step_string s "" ]
  in
  go 0 s

(* ---------- Dump ---------- *)

let jsonl t =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun s ->
      let flags =
        String.concat ", "
          (List.map (fun f -> Printf.sprintf "\"%s\"" (flag_name f)) (flags_of_mask s.s_mask))
      in
      let quote_all names = String.concat ", " (List.map (fun n -> Printf.sprintf "\"%s\"" n) names) in
      Buffer.add_string buffer
        (Printf.sprintf
           "{\"function\": \"%s\", \"file\": \"%s\", \"line\": %d, \"effects\": [%s], \
            \"prng_params\": [%s], \"write_params\": [%s]}\n"
           (Callgraph.key_to_string s.s_key)
           s.s_module.Source.m_path s.s_def.Source.d_line flags (quote_all s.s_prng_params)
           (quote_all s.s_write_params)))
    t.e_order;
  Buffer.contents buffer
