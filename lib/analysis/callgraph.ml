(* Inter-module reference resolution and call-graph construction.

   Qualified identifier paths are resolved through four scopes, in order:
   local [module X = Path] aliases, the module's own nested modules (seen
   from the caller's nesting outwards), the wrapped library roots
   ([Concilium_util.Prng.int]), and sibling modules of the same library.
   Unqualified identifiers resolve only within their own module, again
   innermost nesting first — an [open]ed module's values are not chased
   (the tree under analysis opens only external libraries such as
   Cmdliner).  An infix operator the module defines is a call wherever its
   symbol appears.  Unresolvable heads are external by construction
   (Stdlib, Str, ...) and are handled by the effect scanner's intrinsic
   tables instead. *)

type key = { k_lib : string; k_mod : string; k_fn : string }

let key_compare a b =
  match String.compare a.k_lib b.k_lib with
  | 0 -> ( match String.compare a.k_mod b.k_mod with 0 -> String.compare a.k_fn b.k_fn | c -> c)
  | c -> c

let key_to_string k = Printf.sprintf "%s.%s.%s" k.k_lib k.k_mod k.k_fn
let display k = Printf.sprintf "%s.%s" k.k_mod k.k_fn

type call = { c_callee : key; c_line : int; c_atoms : Source.atom list }

(* A cross-library module reference; the raw material of the layering
   check. *)
type xref = { x_from : string; x_to : string; x_file : string; x_line : int; x_token : string }

type program = {
  p_modules : Source.module_info list;  (* sorted by path *)
  p_by_lib : (string, (string, Source.module_info) Hashtbl.t) Hashtbl.t;
  p_defs : (string, Source.def * Source.module_info) Hashtbl.t;  (* key_to_string *)
  p_nested : (string, unit) Hashtbl.t;  (* key_to_string of each nested module path *)
}

let find_module program ~lib ~modname =
  match Hashtbl.find_opt program.p_by_lib lib with
  | None -> None
  | Some mods -> Hashtbl.find_opt mods modname

let find_def program key = Hashtbl.find_opt program.p_defs (key_to_string key)

let build modules =
  let modules =
    List.sort (fun a b -> String.compare a.Source.m_path b.Source.m_path) modules
  in
  let by_lib = Hashtbl.create 16 in
  let defs = Hashtbl.create 512 in
  let nested = Hashtbl.create 16 in
  List.iter
    (fun (m : Source.module_info) ->
      let mods =
        match Hashtbl.find_opt by_lib m.Source.m_library with
        | Some mods -> mods
        | None ->
            let mods = Hashtbl.create 16 in
            Hashtbl.replace by_lib m.Source.m_library mods;
            mods
      in
      Hashtbl.replace mods m.Source.m_name m;
      List.iter
        (fun (d : Source.def) ->
          let key = { k_lib = m.Source.m_library; k_mod = m.Source.m_name; k_fn = d.Source.d_name } in
          Hashtbl.replace defs (key_to_string key) (d, m);
          (* every proper prefix of "A.B.f" names a nested module *)
          let rec prefixes acc = function
            | [] | [ _ ] -> ()
            | segment :: rest ->
                let path = acc @ [ segment ] in
                Hashtbl.replace nested (key_to_string { key with k_fn = String.concat "." path }) ();
                prefixes path rest
          in
          prefixes [] (String.split_on_char '.' d.Source.d_name))
        m.Source.m_defs)
    modules;
  { p_modules = modules; p_by_lib = by_lib; p_defs = defs; p_nested = nested }

(* [scope] is the caller's nested-module path (["Model"] for a definition
   named "Model.occupancy_model"); a name is looked up innermost first. *)
let scopes scope =
  List.fold_left
    (fun acc segment ->
      match acc with inner :: _ -> (inner @ [ segment ]) :: acc | [] -> [ [ segment ] ])
    [ [] ] scope

let scope_of_def (d : Source.def) =
  match List.rev (String.split_on_char '.' d.Source.d_name) with
  | _ :: outer -> List.rev outer
  | [] -> []

(* ---------- Path resolution ---------- *)

let wrapper_prefix = "Concilium_"

let lib_of_wrapper name =
  let n = String.length wrapper_prefix in
  if String.length name > n && String.sub name 0 n = wrapper_prefix then
    Some (String.lowercase_ascii name)
  else None

type resolution =
  | Value of key  (* a value path into a known module *)
  | Module_ref of string * string  (* library, module: no value component *)
  | External

(* The value named by a path below a module: nested module names up to the
   first lowercase segment; what follows is record field access
   ([S.table.S.run] names [table]). *)
let value_path path =
  let rec take = function
    | segment :: rest when Source.is_upper segment.[0] -> segment :: take rest
    | segment :: _ -> [ segment ]
    | [] -> []
  in
  String.concat "." (take path)

(* [segments] is a dotted path, head first.  [m] provides aliases, nested
   modules and the sibling scope. *)
let resolve ?(scope = []) program (m : Source.module_info) segments =
  let own fn = { k_lib = m.Source.m_library; k_mod = m.Source.m_name; k_fn = fn } in
  let nested head =
    List.find_opt
      (fun outer -> Hashtbl.mem program.p_nested (key_to_string (own (String.concat "." (outer @ [ head ])))))
      (scopes scope)
  in
  let rec go depth segments =
    if depth > 4 then External
    else
      match segments with
      | [] -> External
      | head :: rest when Source.is_upper head.[0] -> (
          match (List.assoc_opt head m.Source.m_aliases, nested head) with
          | Some target, _ -> go (depth + 1) (target @ rest)
          | None, Some outer -> (
              match rest with
              | [] -> Module_ref (m.Source.m_library, m.Source.m_name)
              | _ -> Value (own (value_path (outer @ (head :: rest)))))
          | None, None -> (
              match lib_of_wrapper head with
              | Some lib when Hashtbl.mem program.p_by_lib lib -> in_library lib rest
              | _ ->
                  (* sibling module of the same library (lib/ trees only:
                     bin modules are standalone executables) *)
                  if
                    m.Source.m_library <> "bin"
                    && find_module program ~lib:m.Source.m_library ~modname:head <> None
                  then in_library m.Source.m_library (head :: rest)
                  else External))
      | _ -> External
  and in_library lib = function
    | [] -> Module_ref (lib, "")
    | modname :: path when Source.is_upper modname.[0] ->
        if find_module program ~lib ~modname <> None then
          match path with
          | [] -> Module_ref (lib, modname)
          | _ -> Value { k_lib = lib; k_mod = modname; k_fn = value_path path }
        else Module_ref (lib, modname)
    | _ -> External
  in
  go 0 segments

(* ---------- Reference scanning ---------- *)

let token_re =
  Str.regexp "[A-Za-z_][A-Za-z0-9_']*\\(\\.[A-Za-z_][A-Za-z0-9_']*\\)*"

let line_of_pos body from_line pos =
  let line = ref from_line in
  for i = 0 to min pos (String.length body) - 1 do
    if body.[i] = '\n' then incr line
  done;
  !line

(* The symbol of an operator definition: ["+%"] for ["( +% )"]. *)
let operator_symbol name =
  if String.length name > 2 && name.[0] = '(' then
    Some (String.trim (String.sub name 1 (String.length name - 2)))
  else None

(* Whether the [name] at [at] is the right-hand side of its own shadowing
   [let name = name ...], so still the outer definition. *)
let rebinds body at name =
  let line_start =
    if at = 0 then 0
    else match String.rindex_from_opt body (at - 1) '\n' with Some i -> i + 1 | None -> 0
  in
  Str.string_match
    (Str.regexp (".*let +" ^ Str.quote name ^ " *= *$"))
    (String.sub body line_start (at - line_start))
    0

(* All resolved calls and cross-library references in [body] (scrubbed text
   whose first line is [from_line]), resolved in module [m]'s scope from
   nested-module path [scope].  [locals] names identifiers that shadow
   module definitions. *)
let scan_body ?(scope = []) program (m : Source.module_info) ~from_line ~locals body =
  let calls = ref [] in
  let xrefs = ref [] in
  let own fn = { k_lib = m.Source.m_library; k_mod = m.Source.m_name; k_fn = fn } in
  let add_call key at atoms_from =
    calls :=
      {
        c_callee = key;
        c_line = line_of_pos body from_line at;
        c_atoms = (match atoms_from with Some p -> Source.parse_atoms body p | None -> []);
      }
      :: !calls
  in
  let add_xref lib at token =
    if lib <> m.Source.m_library then
      xrefs :=
        {
          x_from = m.Source.m_library;
          x_to = lib;
          x_file = m.Source.m_path;
          x_line = line_of_pos body from_line at;
          x_token = token;
        }
        :: !xrefs
  in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match Str.search_forward token_re body !pos with
    | exception Not_found -> continue := false
    | at ->
        let token = Str.matched_string body in
        let token_end = Str.match_end () in
        pos := token_end;
        (* [~label:] names a parameter; a punned [~x] uses [x] *)
        let label =
          at > 0
          && (body.[at - 1] = '~' || body.[at - 1] = '?')
          && token_end < String.length body
          && body.[token_end] = ':'
        in
        if not label then begin
          let segments = String.split_on_char '.' token in
          match segments with
          | head :: _ when Source.is_upper head.[0] -> (
              match resolve ~scope program m segments with
              | Value key ->
                  add_xref key.k_lib at token;
                  if find_def program key <> None then add_call key at (Some token_end)
              | Module_ref (lib, _) -> add_xref lib at token
              | External -> ())
          | [ name ] when (not (List.mem name locals)) || rebinds body at name -> (
              (* unqualified: a definition of the same module, innermost
                 nesting first *)
              match
                List.find_opt
                  (fun key -> find_def program key <> None)
                  (List.map (fun outer -> own (String.concat "." (outer @ [ name ]))) (scopes scope))
              with
              | Some key -> add_call key at (Some token_end)
              | None -> ())
          | _ -> ()
        end
  done;
  List.iter
    (fun (d : Source.def) ->
      match operator_symbol d.Source.d_name with
      | Some symbol -> (
          match Str.search_forward (Str.regexp_string symbol) body 0 with
          | at -> add_call (own d.Source.d_name) at None
          | exception Not_found -> ())
      | None -> ())
    m.Source.m_defs;
  (List.rev !calls, List.rev !xrefs)

(* ---------- Dumps ---------- *)

let dot program ~edges =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  List.iter
    (fun (m : Source.module_info) ->
      List.iter
        (fun (d : Source.def) ->
          if not d.Source.d_is_value then
            Buffer.add_string buffer
              (Printf.sprintf "  \"%s.%s\";\n" m.Source.m_name d.Source.d_name))
        m.Source.m_defs)
    program.p_modules;
  List.iter
    (fun (caller, callee) ->
      Buffer.add_string buffer
        (Printf.sprintf "  \"%s\" -> \"%s\";\n" (display caller) (display callee)))
    edges;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

let jsonl ~edges =
  let buffer = Buffer.create 4096 in
  let grouped = Hashtbl.create 256 in
  List.iter
    (fun (caller, callee) ->
      let existing = match Hashtbl.find_opt grouped (key_to_string caller) with Some l -> l | None -> [] in
      Hashtbl.replace grouped (key_to_string caller) (callee :: existing))
    edges;
  let callers =
    List.sort_uniq String.compare (List.map (fun (c, _) -> key_to_string c) edges)
  in
  List.iter
    (fun caller ->
      let callees =
        match Hashtbl.find_opt grouped caller with
        | Some l -> List.sort_uniq String.compare (List.map key_to_string l)
        | None -> []
      in
      Buffer.add_string buffer
        (Printf.sprintf "{\"function\": \"%s\", \"calls\": [%s]}\n" caller
           (String.concat ", " (List.map (fun c -> Printf.sprintf "\"%s\"" c) callees))))
    callers;
  Buffer.contents buffer
