(* Pool race detector.

   Roots are the [Pool.parallel_init] / [Pool.parallel_map] call sites; the
   [~f] task runs concurrently on worker domains, so everything reachable
   from it must stay within the determinism contract:

   - no writes to captured or module-level mutable state — the sanctioned
     exceptions are the per-task slot ([results.(i) <- ...] indexed by the
     task's own parameter) and the per-shard [Concilium_obs] collector;
   - randomness only from a split-derived generator owned by the task
     (a per-task [rngs.(i)], a generator parameter, or one created inside
     the task) — never a generator shared across tasks, because every draw
     mutates the generator;
   - no I/O, no raw domain primitives.

   Each finding carries the call-graph trail from the root to the line
   where the effect originates. *)

let pool_fns = [ "parallel_init"; "parallel_map"; "parallel_init_rng" ]

let is_pool_call (key : Callgraph.key) =
  key.Callgraph.k_lib = "concilium_util"
  && key.Callgraph.k_mod = "Pool"
  && List.mem key.Callgraph.k_fn pool_fns

type cls =
  | Task_owned  (* closure binder or closure-local value *)
  | Captured of string  (* enclosing-scope value caught in the closure *)
  | Global of string  (* module-level value binding *)
  | Fn
  | Unknown

(* Classify a name seen inside a task closure: closure scope first (with
   alias chasing that may escape to the enclosing scope), then binders,
   then the enclosing definition's scope. *)
let classify_in_closure ~closure_locals ~binders ~(outer : Effects.summary) name =
  let outer_cls name =
    match
      Effects.classify ~locals:outer.Effects.s_locals ~params:outer.Effects.s_params
        ~m:outer.Effects.s_module name
    with
    | Effects.Local_created | Effects.Local_opaque | Effects.Param _ -> Captured name
    | Effects.Global_value -> Global name
    | Effects.Global_fn -> Fn
    | Effects.Unresolved -> Unknown
  in
  let rec go depth name =
    if depth > 5 then Task_owned
    else
      match List.assoc_opt name closure_locals with
      | Some Source.Created | Some Source.Opaque -> Task_owned
      | Some (Source.Alias target) -> if target = name then Task_owned else go (depth + 1) target
      | Some (Source.Indexed (target, index)) ->
          (* [let x = arr.(i)] with a task binder index: the pre-split,
             per-task slot pattern *)
          if List.exists (fun ident -> List.mem ident binders) index then Task_owned
          else if target = name then Task_owned
          else go (depth + 1) target
      | None -> if List.mem name binders then Task_owned else outer_cls name
  in
  go 0 name

(* A captured array cell indexed by a task binder is the pre-split,
   per-task slot pattern ([shard_rngs.(i)], [results.(i) <- ...]). *)
let indexed_by_binder ~binders index_idents =
  List.exists (fun ident -> List.mem ident binders) index_idents

let finding ~(outer : Effects.summary) ~rule ~line ~message ~trail =
  {
    Finding.rule;
    file = outer.Effects.s_module.Source.m_path;
    line;
    message;
    trail;
  }

(* Effect flags of a callee reached from a task, as findings. *)
let callee_flag_findings effects ~outer ~root_step ~step ~line (g : Effects.summary) =
  let flagged rule flag what =
    if Effects.has g.Effects.s_mask flag then
      [
        finding ~outer ~rule ~line
          ~message:
            (Printf.sprintf "task reaches %s, which %s" (Callgraph.display g.Effects.s_key) what)
          ~trail:((root_step :: step) @ Effects.trail effects g flag);
      ]
    else []
  in
  flagged "pool-shared-write" Effects.Writes_global "writes module-level mutable state"
  @ flagged "pool-io" Effects.Io "performs I/O"
  @ flagged "pool-domain" Effects.Domain_primitive "uses a raw domain primitive"
  @ flagged "pool-unsplit-prng" Effects.Ambient_randomness "draws from ambient randomness"

(* Arguments a task passes into a callee: shared state flowing into a
   parameter the callee draws from or writes through. *)
let callee_arg_findings ~outer ~root_step ~step ~classify ~binders ~line
    (c : Callgraph.call) (g : Effects.summary) =
  if Effects.trusted g.Effects.s_key then []
  else
    List.concat_map
      (fun ((atom : Source.atom), names) ->
        match atom.Source.a_head with
        | Some head -> (
            match classify head with
            | (Captured shared | Global shared)
              when not (indexed_by_binder ~binders atom.Source.a_index_idents) ->
                let feeds field = List.exists (fun n -> List.mem n field) names in
                let hit rule what =
                  finding ~outer ~rule ~line
                    ~message:
                      (Printf.sprintf "task passes shared %s into %s, which %s it" shared
                         (Callgraph.display g.Effects.s_key) what)
                    ~trail:(root_step :: step)
                in
                (if feeds g.Effects.s_prng_params then [ hit "pool-unsplit-prng" "draws from" ]
                 else [])
                @
                if feeds g.Effects.s_write_params && not (Effects.sanctioned_sink g.Effects.s_key)
                then [ hit "pool-shared-write" "writes through" ]
                else []
            | _ -> [])
        | None -> [])
      (Effects.match_args c.Callgraph.c_atoms g.Effects.s_def.Source.d_params)

(* ---------- Task closure analysis ---------- *)

let closure_findings program effects ~(outer : Effects.summary) ~root_step ~pool_line closure_text =
  match Source.split_closure closure_text with
  | None -> []
  | Some (binders, body) ->
      let closure_locals = Source.local_bindings body in
      let classify = classify_in_closure ~closure_locals ~binders ~outer in
      (* the closure's first line, recovered by locating its text inside
         the enclosing definition's body *)
      let from_line =
        match Str.search_forward (Str.regexp_string body) outer.Effects.s_def.Source.d_body 0 with
        | exception Not_found -> pool_line
        | at ->
            Callgraph.line_of_pos outer.Effects.s_def.Source.d_body outer.Effects.s_def.Source.d_line
              at
      in
      let intrinsic = ref [] in
      (* direct writes to captured or global state *)
      List.iter
        (fun (w : Effects.write) ->
          match classify w.Effects.w_target with
          | (Captured shared | Global shared)
            when not (indexed_by_binder ~binders w.Effects.w_index) ->
              intrinsic :=
                finding ~outer ~rule:"pool-shared-write" ~line:w.Effects.w_line
                  ~message:
                    (Printf.sprintf "task writes shared %s (%s); route it through the per-shard \
                                     collector or a per-task slot"
                       shared w.Effects.w_note)
                  ~trail:[ root_step ]
                :: !intrinsic
          | _ -> ())
        (Effects.scan_writes ~from_line body);
      (match Effects.scan_first Effects.io_re ~from_line body with
      | Some (line, text) ->
          intrinsic :=
            finding ~outer ~rule:"pool-io" ~line
              ~message:(Printf.sprintf "task performs I/O via %s" text)
              ~trail:[ root_step ]
            :: !intrinsic
      | None -> ());
      (match Effects.scan_first Effects.domain_re ~from_line body with
      | Some (line, text) ->
          intrinsic :=
            finding ~outer ~rule:"pool-domain" ~line
              ~message:(Printf.sprintf "task uses raw domain primitive %s" text)
              ~trail:[ root_step ]
            :: !intrinsic
      | None -> ());
      (match Effects.scan_first Effects.ambient_re ~from_line body with
      | Some (line, _) ->
          intrinsic :=
            finding ~outer ~rule:"pool-unsplit-prng" ~line
              ~message:"task draws from process-global Stdlib.Random"
              ~trail:[ root_step ]
            :: !intrinsic
      | None -> ());
      (* calls out of the closure *)
      let shadows = binders @ List.map fst closure_locals in
      let calls, _ =
        Callgraph.scan_body
          ~scope:(Callgraph.scope_of_def outer.Effects.s_def)
          program outer.Effects.s_module ~from_line ~locals:shadows body
      in
      let call_findings =
        List.concat_map
          (fun (c : Callgraph.call) ->
            if Effects.is_prng_draw c.Callgraph.c_callee then begin
              (* a draw inside the task: the generator must be task-owned *)
              match
                List.find_opt (fun (a : Source.atom) -> a.Source.a_label = None) c.Callgraph.c_atoms
              with
              | Some atom -> (
                  match atom.Source.a_head with
                  | Some head -> (
                      match classify head with
                      | (Captured shared | Global shared)
                        when not (indexed_by_binder ~binders atom.Source.a_index_idents) ->
                          [
                            finding ~outer ~rule:"pool-unsplit-prng" ~line:c.Callgraph.c_line
                              ~message:
                                (Printf.sprintf
                                   "task draws from shared generator %s (Prng.%s mutates it); \
                                    pre-split with Prng.split_n and pass a per-task generator"
                                   shared c.Callgraph.c_callee.Callgraph.k_fn)
                              ~trail:[ root_step ];
                          ]
                      | _ -> [])
                  | None -> [])
              | None -> []
            end
            else
              match Effects.find effects c.Callgraph.c_callee with
              | None -> []
              | Some g ->
                  let step =
                    [
                      Printf.sprintf "task calls %s at %s:%d" (Callgraph.display g.Effects.s_key)
                        outer.Effects.s_module.Source.m_path c.Callgraph.c_line;
                    ]
                  in
                  callee_flag_findings effects ~outer ~root_step ~step ~line:c.Callgraph.c_line g
                  @ callee_arg_findings ~outer ~root_step ~step ~classify ~binders
                      ~line:c.Callgraph.c_line c g)
          calls
      in
      List.rev !intrinsic @ call_findings

(* ---------- Direct function roots ---------- *)

let direct_findings effects ~outer ~root_step ~line (g : Effects.summary) =
  (* [~f:some_fn] — the pool feeds per-task values, so parameter-flow rules
     do not apply; only the callee's own effects can break the contract. *)
  callee_flag_findings effects ~outer ~root_step ~step:[] ~line g

let resolve_task_ref program (outer : Effects.summary) (atom : Source.atom) =
  match atom.Source.a_path with
  | [ name ] when name <> "" && Source.is_lower name.[0] ->
      Some
        {
          Callgraph.k_lib = outer.Effects.s_module.Source.m_library;
          Callgraph.k_mod = outer.Effects.s_module.Source.m_name;
          Callgraph.k_fn = name;
        }
  | path -> (
      match Callgraph.resolve program outer.Effects.s_module path with
      | Callgraph.Value key -> Some key
      | Callgraph.Module_ref _ | Callgraph.External -> None)

(* ---------- Entry point ---------- *)

let analyze program (effects : Effects.t) =
  List.concat_map
    (fun (s : Effects.summary) ->
      List.concat_map
        (fun (c : Callgraph.call) ->
          if not (is_pool_call c.Callgraph.c_callee) then []
          else begin
            let pool_fn = c.Callgraph.c_callee.Callgraph.k_fn in
            let root_step =
              Printf.sprintf "%s submits a task to Pool.%s at %s:%d"
                (Callgraph.display s.Effects.s_key) pool_fn s.Effects.s_module.Source.m_path
                c.Callgraph.c_line
            in
            match
              List.find_opt
                (fun (a : Source.atom) -> a.Source.a_label = Some "f")
                c.Callgraph.c_atoms
            with
            | None -> []
            | Some atom ->
                if Source.closure_atom atom then
                  closure_findings program effects ~outer:s ~root_step
                    ~pool_line:c.Callgraph.c_line atom.Source.a_text
                else (
                  match resolve_task_ref program s atom with
                  | None -> []
                  | Some key -> (
                      match Effects.find effects key with
                      | None -> []
                      | Some g ->
                          direct_findings effects ~outer:s ~root_step ~line:c.Callgraph.c_line g))
          end)
        s.Effects.s_calls)
    effects.Effects.e_order
