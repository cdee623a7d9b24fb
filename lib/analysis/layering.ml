(* Architecture layering checker.

   [analysis/layers.txt] lists the libraries bottom-up, one layer per line
   (several libraries may share a line).  An edge [from -> to] — a dune
   dependency or a resolved cross-library reference — is legal exactly when
   [to] sits on a strictly lower layer.  Same-library references are not
   edges, and libraries outside the file are reported once each rather than
   guessed at. *)

type spec = { s_layers : (string * int) list }  (* library -> layer index, bottom = 0 *)

(* Accept both short names ("util") and full library names
   ("concilium_util"); the executable trees ("bin", "test", "bench",
   "examples") stay as-is. *)
let normalize word =
  if List.mem word [ "bin"; "test"; "bench"; "examples" ] then word
  else if String.length word > 10 && String.sub word 0 10 = "concilium_" then word
  else "concilium_" ^ word

let parse text =
  let lines = String.split_on_char '\n' text in
  let layers = ref [] in
  let index = ref 0 in
  let error = ref None in
  List.iter
    (fun line ->
      let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
      let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line)) in
      if words <> [] then begin
        List.iter
          (fun word ->
            let lib = normalize word in
            if List.mem_assoc lib !layers && !error = None then
              error := Some (Printf.sprintf "library %s appears on two layers" lib)
            else layers := (lib, !index) :: !layers)
          words;
        incr index
      end)
    lines;
  match !error with
  | Some message -> Error message
  | None when !layers = [] -> Error "layers file lists no libraries"
  | None -> Ok { s_layers = List.rev !layers }

let layer_of spec lib = List.assoc_opt lib spec.s_layers

type edge = { e_from : string; e_to : string; e_file : string; e_line : int; e_what : string }

(* Check a set of edges against the spec; pure so the qcheck property can
   drive it with synthetic layerings. *)
let check spec edges =
  let unknown_reported = ref [] in
  let findings = ref [] in
  List.iter
    (fun e ->
      if e.e_from <> e.e_to then
        match (layer_of spec e.e_from, layer_of spec e.e_to) with
        | Some lf, Some lt ->
            if lt >= lf then
              findings :=
                {
                  Finding.rule = "layer-back-edge";
                  file = e.e_file;
                  line = e.e_line;
                  message =
                    Printf.sprintf
                      "%s (layer %d) must not depend on %s (layer %d): %s breaks the \
                       architecture DAG"
                      e.e_from lf e.e_to lt e.e_what;
                  trail = [];
                }
                :: !findings
        | missing_from, missing_to ->
            List.iter
              (fun (lib, layer) ->
                if layer = None && not (List.mem lib !unknown_reported) then begin
                  unknown_reported := lib :: !unknown_reported;
                  findings :=
                    {
                      Finding.rule = "layer-unknown";
                      file = e.e_file;
                      line = e.e_line;
                      message =
                        Printf.sprintf
                          "library %s is not listed in the layers file; add it to its layer"
                          lib;
                      trail = [];
                    }
                    :: !findings
                end)
              [ (e.e_from, missing_from); (e.e_to, missing_to) ])
    edges;
  List.rev !findings

(* ---------- Edge extraction from dune files ---------- *)

let dune_libraries_re = Str.regexp "(libraries\\([^)]*\\))"

(* Library-dependency edges declared by a dune file.  The owning library is
   taken from the path (lib/<dir>/dune), so executable stanzas in bin/ all
   collapse onto the "bin" pseudo-library. *)
let dune_edges ~path text =
  let from_lib = Source.library_of_path (Filename.concat (Filename.dirname path) "x.ml") in
  let edges = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match Str.search_forward dune_libraries_re text !pos with
    | exception Not_found -> continue := false
    | at ->
        let deps = Str.matched_group 1 text in
        pos := Str.match_end ();
        let line = 1 + List.length (String.split_on_char '\n' (String.sub text 0 at)) - 1 in
        List.iter
          (fun word ->
            if String.length word > 10 && String.sub word 0 10 = "concilium_" then
              edges :=
                {
                  e_from = from_lib;
                  e_to = word;
                  e_file = path;
                  e_line = line;
                  e_what = Printf.sprintf "dune (libraries %s)" word;
                }
                :: !edges)
          (List.filter (fun w -> w <> "")
             (String.split_on_char ' ' (String.map (fun c -> if c = '\n' then ' ' else c) deps)))
  done;
  List.rev !edges

let xref_edges xrefs =
  List.map
    (fun (x : Callgraph.xref) ->
      {
        e_from = x.Callgraph.x_from;
        e_to = x.Callgraph.x_to;
        e_file = x.Callgraph.x_file;
        e_line = x.Callgraph.x_line;
        e_what = Printf.sprintf "reference %s" x.Callgraph.x_token;
      })
    xrefs
