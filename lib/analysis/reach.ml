(* Reachability: which library definitions an entry point reaches.

   Roots are every top-level binding of an executable — a module under
   bin/, bench/ or examples/, or of a consumer project (a directory with
   its own dune-project, read for roots only) — plus library initializers
   ([let () = ...], [let _ = ...]), which run whenever their module is
   linked.  A library definition no root reaches along the call graph's
   references is [test-only] when a definition under test/ reaches it and
   [unreachable] otherwise.  A definition kept by a reasoned allow keeps
   what it calls.  With no root in the scan there is nothing to judge
   against, so the pass reports nothing. *)

type role = Root | Test | Library | Other

let role ~consumer (m : Source.module_info) =
  if consumer m.Source.m_path then Root
  else
    match m.Source.m_library with
    | "bin" | "bench" | "examples" -> Root
    | "test" -> Test
    | lib when String.starts_with ~prefix:"concilium_" lib -> Library
    | _ -> Other

let initializer_def (d : Source.def) =
  d.Source.d_name = "()" || String.starts_with ~prefix:"_" d.Source.d_name

(* Every key reached from [roots] along [s_refs]. *)
let closure (effects : Effects.t) roots =
  let seen = Hashtbl.create 1024 in
  let rec visit key =
    let id = Callgraph.key_to_string key in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Effects.find effects key with
      | Some s -> List.iter visit s.Effects.s_refs
      | None -> ()
    end
  in
  List.iter visit roots;
  seen

let finding (s : Effects.summary) ~tested =
  let name = Callgraph.display s.Effects.s_key in
  let rule, message =
    if tested then
      ( "test-only",
        Printf.sprintf
          "%s is reached only from test/; delete it with its tests, or allow it with the reason it \
           must stay"
          name )
    else ("unreachable", Printf.sprintf "nothing reaches %s from an entry point or a test; delete it" name)
  in
  { Finding.rule; file = s.Effects.s_module.Source.m_path; line = s.Effects.s_def.Source.d_line; message; trail = [] }

let analyze ~consumer ~allowed (effects : Effects.t) =
  let with_role =
    List.map (fun (s : Effects.summary) -> (role ~consumer s.Effects.s_module, s)) effects.Effects.e_order
  in
  let keys pick =
    List.filter_map
      (fun (r, (s : Effects.summary)) -> if pick r s then Some s.Effects.s_key else None)
      with_role
  in
  if not (List.exists (fun (r, _) -> r = Root) with_role) then []
  else
    let init r (s : Effects.summary) = r = Library && initializer_def s.Effects.s_def in
    let production = closure effects (keys (fun r s -> r = Root || init r s)) in
    let tested = closure effects (keys (fun r s -> r = Test || init r s)) in
    let unreached =
      List.filter_map
        (fun (r, (s : Effects.summary)) ->
          let id = Callgraph.key_to_string s.Effects.s_key in
          if r <> Library || Hashtbl.mem production id then None
          else Some (s, finding s ~tested:(Hashtbl.mem tested id)))
        with_role
    in
    let kept =
      closure effects
        (List.concat_map
           (fun ((s : Effects.summary), f) -> if allowed f then s.Effects.s_refs else [])
           unreached)
    in
    List.filter_map
      (fun ((s : Effects.summary), f) ->
        if allowed f || not (Hashtbl.mem kept (Callgraph.key_to_string s.Effects.s_key)) then Some f
        else None)
      unreached
