(* Orchestration: gather sources, run the passes, filter suppressions and
   render reports.  Each source file is scrubbed once; the scrub feeds the
   per-file rules, the suppression directives and, for [.ml] files, the
   whole-program passes.  [analyze_sources] is pure over in-memory sources
   so the tests drive it with fixtures; [analyze_tree] walks the
   repository. *)

module Metrics = Concilium_obs.Metrics

type report = {
  r_findings : Finding.t list;  (* unsuppressed, sorted *)
  r_suppressed : int;
  r_metrics : Metrics.t;
  r_program : Callgraph.program;
  r_effects : Effects.t;
  r_edges : (Callgraph.key * Callgraph.key) list;  (* call edges, for dumps *)
}

let call_edges (effects : Effects.t) =
  List.concat_map
    (fun (s : Effects.summary) ->
      List.map (fun (c : Callgraph.call) -> (s.Effects.s_key, c.Callgraph.c_callee)) s.Effects.s_calls)
    effects.Effects.e_order

(* ---------- Core pipeline over in-memory sources ---------- *)

(* [tree_findings] are project-level hits (missing-mli) that go through
   the same suppression filter as everything else. *)
let analyze ~layers_path ~layers_text ~dunes ~files ~tree_findings =
  let scanned = List.map (fun (path, source) -> (path, Lexer.scrub source)) files in
  let modules =
    List.filter_map
      (fun (path, scrubbed) ->
        if Filename.check_suffix path ".ml" then Some (Source.parse ~path scrubbed) else None)
      scanned
  in
  let program = Callgraph.build modules in
  let effects = Effects.compute program in
  (* cross-library references: whole-file scans so module-level expressions
     and alias lines count, not just function bodies *)
  let xrefs =
    List.concat_map
      (fun (m : Source.module_info) ->
        let _, xrefs =
          Callgraph.scan_body program m ~from_line:1 ~locals:[]
            (String.concat "\n" (Array.to_list m.Source.m_code))
        in
        xrefs)
      program.Callgraph.p_modules
  in
  let layer_findings =
    match Layering.parse layers_text with
    | Error message ->
        [
          {
            Finding.rule = "layer-unknown";
            file = layers_path;
            line = 1;
            message = Printf.sprintf "cannot parse layers file: %s" message;
            trail = [];
          };
        ]
    | Ok spec ->
        let dune_edges =
          List.concat_map (fun (path, text) -> Layering.dune_edges ~path text) dunes
        in
        Layering.check spec (dune_edges @ Layering.xref_edges xrefs)
  in
  let race_findings = Races.analyze program effects in
  let file_findings =
    List.concat_map (fun (path, scrubbed) -> Rules.check_source ~path scrubbed) scanned
    @ List.concat_map (fun (path, text) -> Rules.check_dune ~path text) dunes
  in
  let raw =
    List.sort_uniq Finding.compare_finding
      (tree_findings @ file_findings @ layer_findings @ race_findings)
  in
  (* suppression directives live in each source file's comments *)
  let by_file = Hashtbl.create 64 in
  let invalid_directives = ref [] in
  List.iter
    (fun (path, (scrubbed : Lexer.scrubbed)) ->
      let suppressions, invalid = Finding.parse_suppressions ~file:path scrubbed.Lexer.comments in
      Hashtbl.replace by_file path suppressions;
      invalid_directives := !invalid_directives @ invalid)
    scanned;
  let kept, suppressed =
    List.partition
      (fun (f : Finding.t) ->
        match Hashtbl.find_opt by_file f.Finding.file with
        | Some suppressions ->
            not (Finding.suppressed suppressions ~rule:f.Finding.rule ~line:f.Finding.line)
        | None -> true)
      raw
  in
  let findings = List.sort_uniq Finding.compare_finding (kept @ !invalid_directives) in
  let metrics = Metrics.create () in
  Metrics.incr metrics ~by:(List.length modules) "analysis:modules-scanned";
  Metrics.incr metrics
    ~by:(List.fold_left (fun acc (m : Source.module_info) -> acc + List.length m.Source.m_defs) 0 modules)
    "analysis:functions-resolved";
  Metrics.incr metrics ~by:effects.Effects.e_calls_resolved "analysis:calls-resolved";
  Metrics.incr metrics ~by:(List.length findings) "analysis:findings";
  Metrics.incr metrics ~by:(List.length suppressed) "analysis:findings-suppressed";
  {
    r_findings = findings;
    r_suppressed = List.length suppressed;
    r_metrics = metrics;
    r_program = program;
    r_effects = effects;
    r_edges = call_edges effects;
  }

let analyze_sources ~layers_path ~layers_text ~dunes ~files =
  analyze ~layers_path ~layers_text ~dunes ~files ~tree_findings:[]

(* ---------- Filesystem walking ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect path acc =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.filter (fun entry -> entry <> "" && entry.[0] <> '.' && entry.[0] <> '_')
    |> List.sort String.compare
    |> List.fold_left (fun acc entry -> collect (Filename.concat path entry) acc) acc
  else if
    Filename.check_suffix path ".ml"
    || Filename.check_suffix path ".mli"
    || Filename.basename path = "dune"
  then path :: acc
  else acc

let analyze_tree ~layers_path ~inject ~paths =
  match read_file layers_path with
  | exception Sys_error message -> Error (Printf.sprintf "cannot read layers file: %s" message)
  | layers_text ->
      let found = List.rev (List.fold_left (fun acc path -> collect path acc) [] paths) in
      let sources, dunes =
        List.fold_left
          (fun (sources, dunes) path ->
            let text = read_file path in
            if Filename.basename path = "dune" then (sources, (path, text) :: dunes)
            else ((path, text) :: sources, dunes))
          ([], []) found
      in
      let injected =
        List.map (fun (c : Inject.canary) -> (c.Inject.c_path, c.Inject.c_source)) inject
      in
      Ok
        (analyze ~layers_path ~layers_text ~dunes:(List.rev dunes)
           ~files:(List.rev sources @ injected) ~tree_findings:(Rules.missing_mli found))

(* ---------- Rendering ---------- *)

let summary_line report =
  let counter = Metrics.counter report.r_metrics in
  Printf.sprintf
    "analysis: %d modules scanned, %d functions resolved, %d calls resolved; %d findings (%d \
     suppressed)"
    (counter "analysis:modules-scanned")
    (counter "analysis:functions-resolved")
    (counter "analysis:calls-resolved")
    (List.length report.r_findings) report.r_suppressed

let render_text report =
  let buffer = Buffer.create 1024 in
  Finding.render_text buffer report.r_findings;
  Buffer.add_string buffer (summary_line report);
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

let render_json report =
  Printf.sprintf "{\"findings\": %s,\n\"metrics\": %s}\n"
    (Finding.to_json report.r_findings)
    (Metrics.snapshot_json report.r_metrics)

let callgraph_dot report = Callgraph.dot report.r_program ~edges:report.r_edges
let callgraph_jsonl report = Callgraph.jsonl ~edges:report.r_edges
let effects_jsonl report = Effects.jsonl report.r_effects
