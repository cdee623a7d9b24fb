(* Lightweight def/use extraction over OCaml source.

   This is not a parser for the language: it works on source already
   scrubbed by the comment- and string-aware [Lexer], and recovers just enough
   structure for a whole-program analysis — top-level definitions with their
   parameter lists and body spans, [open]s, [module X = Path] aliases, and
   single-level [module X = struct ... end] groups.  Bodies stay as scrubbed
   text; call sites and argument atoms are recovered on demand by the
   scanners at the bottom of this file. *)

(* ---------- Character classes and small scanners ---------- *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c || c = '\''

let keywords =
  [
    "let"; "in"; "if"; "then"; "else"; "match"; "with"; "fun"; "function"; "type"; "open";
    "begin"; "end"; "for"; "while"; "do"; "done"; "rec"; "and"; "or"; "not"; "mod"; "land";
    "lor"; "lxor"; "lsl"; "lsr"; "asr"; "try"; "when"; "as"; "of"; "module"; "struct"; "sig";
    "val"; "mutable"; "new"; "assert"; "lazy"; "true"; "false"; "downto"; "to"; "exception";
    "include"; "object"; "method"; "inherit"; "initializer"; "constraint"; "external";
  ]

let is_keyword s = List.mem s keywords

let read_ident s i =
  let n = String.length s in
  if i < n && is_ident_start s.[i] then begin
    let j = ref (i + 1) in
    while !j < n && is_ident_char s.[!j] do
      incr j
    done;
    Some (String.sub s i (!j - i), !j)
  end
  else None

let skip_ws s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && (s.[!j] = ' ' || s.[!j] = '\n' || s.[!j] = '\r') do
    incr j
  done;
  !j

(* Position after the bracket that closes the one at [i]; nesting of (), []
   and {} is tracked jointly so an inner bracket of another kind cannot
   unbalance the scan.  [None] when the text ends first. *)
let balanced s i =
  let n = String.length s in
  let depth = ref 0 in
  let j = ref i in
  let result = ref None in
  while !result = None && !j < n do
    (match s.[!j] with
    | '(' | '[' | '{' -> incr depth
    | ')' | ']' | '}' ->
        decr depth;
        if !depth = 0 then result := Some (!j + 1)
    | _ -> ());
    incr j
  done;
  !result

let idents_of_text text =
  let out = ref [] in
  let i = ref 0 in
  let n = String.length text in
  while !i < n do
    match read_ident text !i with
    | Some (ident, j) ->
        if not (is_keyword ident) then out := ident :: !out;
        i := j
    | None -> incr i
  done;
  List.rev !out

(* ---------- Parameters ---------- *)

type param = {
  p_label : string option;
  p_optional : bool;
  p_names : string list;  (* identifiers bound by the parameter pattern *)
}

(* Identifiers bound by a pattern fragment: everything before a top-level
   [:] (after it lives a type, whose idents are not binders). *)
let pattern_binders text =
  let cut =
    let n = String.length text in
    let depth = ref 0 and stop = ref n in
    let i = ref 0 in
    while !i < n do
      (match text.[!i] with
      | '(' | '[' | '{' -> incr depth
      | ')' | ']' | '}' -> decr depth
      | ':' when !depth = 0 -> if !stop = n then stop := !i
      | _ -> ());
      incr i
    done;
    String.sub text 0 !stop
  in
  List.filter (fun s -> s <> "_") (idents_of_text cut)

(* ---------- Definitions and modules ---------- *)

type def = {
  d_name : string;  (* "run", or "Window.add" inside a nested module *)
  d_params : param list;
  d_body : string;  (* scrubbed item text with the binding header blanked *)
  d_line : int;  (* 1-based line of the [let] *)
  d_is_value : bool;  (* no parameters: a top-level value binding *)
}

type module_info = {
  m_path : string;
  m_library : string;  (* "concilium_util", "bin", ... *)
  m_name : string;  (* "Pool" *)
  m_opens : string list;
  m_aliases : (string * string list) list;  (* local name -> path segments *)
  m_defs : def list;
  m_code : string array;
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* lib/<dir>/x.ml -> concilium_<dir>; bin/x.ml -> bin; anything else keeps
   its first path segment so synthetic test paths still group sensibly. *)
let library_of_path path =
  let segments = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path) in
  match segments with
  | "lib" :: dir :: _ -> "concilium_" ^ dir
  | "bin" :: _ -> "bin"
  | segment :: _ -> segment
  | [] -> "unknown"

(* ---------- Structure-item scanning ---------- *)

let indent_of line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] = ' ' do
    incr i
  done;
  if !i = n then None else Some !i

(* [Some (col, kw)] when the line's first token is a structure keyword; the
   column tells which nesting level it belongs to. *)
let item_at line =
  match indent_of line with
  | Some col -> (
      match read_ident line col with
      | Some (word, _)
        when List.mem word
               [ "let"; "and"; "module"; "open"; "type"; "exception"; "include"; "end" ] ->
          Some (col, word)
      | _ -> None)
  | None -> None

let alias_re =
  Str.regexp
    "^ *module +\\([A-Z][A-Za-z0-9_']*\\) *= *\\([A-Z][A-Za-z0-9_'.]*\\)\\( *(.*\\)? *$"

let struct_re = Str.regexp "^ *module +\\([A-Z][A-Za-z0-9_']*\\).*= *struct *$"
let open_re = Str.regexp "^ *open +\\([A-Z][A-Za-z0-9_'.]*\\)"

(* Parse one [let]/[and] item: name, params, body with the header blanked.
   The header runs to the first [=] at bracket depth 0 (an [=] inside
   [?(x = default)] is depth-guarded). *)
let parse_let item_text line prefix =
  let n = String.length item_text in
  (* skip the let/and keyword *)
  let i =
    match read_ident item_text (skip_ws item_text 0) with
    | Some (_, j) -> (
        let j = skip_ws item_text j in
        match read_ident item_text j with Some ("rec", k) -> skip_ws item_text k | _ -> j)
    | None -> 0
  in
  (* binding name: an identifier, a parenthesised operator, or a pattern *)
  let name, after_name =
    match read_ident item_text i with
    | Some (ident, j) -> (ident, j)
    | None ->
        if i < n && item_text.[i] = '(' then begin
          match balanced item_text i with
          | Some j -> (String.trim (String.sub item_text i (j - i)), j)
          | None -> ("_anon", i + 1)
        end
        else ("_anon", min n (i + 1))
  in
  (* scan the header for parameters until the top-level [=] *)
  let params = ref [] in
  let body_start = ref n in
  let j = ref after_name in
  let stop = ref false in
  while (not !stop) && !j < n do
    let k = skip_ws item_text !j in
    if k >= n then begin
      j := n;
      stop := true
    end
    else begin
      let c = item_text.[k] in
      if c = '=' then begin
        body_start := k + 1;
        stop := true
      end
      else if c = ':' then begin
        (* return-type constraint: skip to the top-level [=] *)
        let depth = ref 0 and m = ref (k + 1) in
        let found = ref false in
        while (not !found) && !m < n do
          (match item_text.[!m] with
          | '(' | '[' | '{' -> incr depth
          | ')' | ']' | '}' -> decr depth
          | '=' when !depth = 0 -> found := true
          | _ -> ());
          if not !found then incr m
        done;
        body_start := min n (!m + 1);
        stop := true
      end
      else if c = '~' || c = '?' then begin
        match read_ident item_text (k + 1) with
        | Some (label, m) ->
            let optional = c = '?' in
            if m < n && item_text.[m] = ':' then begin
              let m' = m + 1 in
              if m' < n && (item_text.[m'] = '(' || item_text.[m'] = '{') then begin
                match balanced item_text m' with
                | Some e ->
                    let inner = String.sub item_text (m' + 1) (e - m' - 2) in
                    params :=
                      { p_label = Some label; p_optional = optional; p_names = pattern_binders inner }
                      :: !params;
                    j := e
                | None ->
                    params := { p_label = Some label; p_optional = optional; p_names = [] } :: !params;
                    j := m' + 1
              end
              else begin
                match read_ident item_text m' with
                | Some (ident, e) ->
                    params :=
                      { p_label = Some label; p_optional = optional; p_names = [ ident ] } :: !params;
                    j := e
                | None ->
                    params := { p_label = Some label; p_optional = optional; p_names = [] } :: !params;
                    j := m'
              end
            end
            else begin
              params :=
                { p_label = Some label; p_optional = optional; p_names = [ label ] } :: !params;
              j := m
            end
        | None ->
            (* [?(x = default)] *)
            if k + 1 < n && item_text.[k + 1] = '(' then begin
              match balanced item_text (k + 1) with
              | Some e ->
                  let inner = String.sub item_text (k + 2) (e - k - 3) in
                  let name =
                    match read_ident inner (skip_ws inner 0) with Some (ident, _) -> ident | None -> "_"
                  in
                  params := { p_label = Some name; p_optional = true; p_names = [ name ] } :: !params;
                  j := e
              | None -> j := k + 2
            end
            else j := k + 1
      end
      else if c = '(' || c = '{' || c = '[' then begin
        match balanced item_text k with
        | Some e ->
            let inner = String.sub item_text (k + 1) (e - k - 2) in
            params := { p_label = None; p_optional = false; p_names = pattern_binders inner } :: !params;
            j := e
        | None ->
            body_start := k;
            stop := true
      end
      else begin
        match read_ident item_text k with
        | Some (ident, m) ->
            if is_keyword ident then begin
              (* [let f = function ...] — no more parameters *)
              body_start := k;
              stop := true
            end
            else begin
              if ident <> "_" then
                params := { p_label = None; p_optional = false; p_names = [ ident ] } :: !params;
              j := m
            end
        | None ->
            body_start := k;
            stop := true
      end
    end
  done;
  (* blank the header so body scans never see parameter or name tokens *)
  let body = Bytes.of_string item_text in
  for idx = 0 to min (n - 1) (!body_start - 1) do
    if Bytes.get body idx <> '\n' then Bytes.set body idx ' '
  done;
  {
    d_name = prefix ^ name;
    d_params = List.rev !params;
    d_body = Bytes.to_string body;
    d_line = line;
    d_is_value = !params = [];
  }

let parse ~path (scrubbed : Lexer.scrubbed) =
  let lines = scrubbed.Lexer.code_lines in
  let count = Array.length lines in
  let defs = ref [] in
  let opens = ref [] in
  let aliases = ref [] in
  let item_text first last =
    String.concat "\n" (Array.to_list (Array.sub lines first (last - first + 1)))
  in
  (* Next structure item at column [indent] or lower, strictly after [i]:
     the end of the item starting at [i]. *)
  let next_item indent i =
    let j = ref (i + 1) in
    let stop = ref false in
    while (not !stop) && !j < count do
      match item_at lines.(!j) with
      | Some (col, _) when col <= indent -> stop := true
      | _ -> incr j
    done;
    !j
  in
  (* Walk the items at column [indent]; returns the first line belonging to
     an enclosing level (or [count]). *)
  let rec walk ~indent ~prefix i =
    if i >= count then count
    else
      match item_at lines.(i) with
      | Some (col, _) when col < indent -> i
      | Some (col, kw) when col = indent -> (
          match kw with
          | "end" -> i (* the enclosing [module _ = struct]'s terminator *)
          | "let" | "and" ->
              let stop = next_item indent i in
              defs := parse_let (item_text i (stop - 1)) (i + 1) prefix :: !defs;
              walk ~indent ~prefix stop
          | "open" ->
              (match Str.string_match open_re lines.(i) 0 with
              | true -> opens := Str.matched_group 1 lines.(i) :: !opens
              | false -> ());
              walk ~indent ~prefix (next_item indent i)
          | "module" ->
              if Str.string_match struct_re lines.(i) 0 then begin
                let name = Str.matched_group 1 lines.(i) in
                let after = walk ~indent:(indent + 2) ~prefix:(prefix ^ name ^ ".") (i + 1) in
                let after =
                  match if after < count then item_at lines.(after) else None with
                  | Some (col, "end") when col = indent -> after + 1
                  | _ -> after
                in
                walk ~indent ~prefix after
              end
              else if Str.string_match alias_re lines.(i) 0 then begin
                let name = Str.matched_group 1 lines.(i) in
                let target = String.split_on_char '.' (Str.matched_group 2 lines.(i)) in
                aliases := (name, target) :: !aliases;
                walk ~indent ~prefix (next_item indent i)
              end
              else walk ~indent ~prefix (next_item indent i)
          | _ -> walk ~indent ~prefix (next_item indent i))
      | _ -> walk ~indent ~prefix (i + 1)
  in
  ignore (walk ~indent:0 ~prefix:"" 0);
  {
    m_path = path;
    m_library = library_of_path path;
    m_name = module_name_of_path path;
    m_opens = List.rev !opens;
    m_aliases = List.rev !aliases;
    m_defs = List.rev !defs;
    m_code = lines;
  }

(* ---------- Argument atoms ---------- *)

type atom = {
  a_label : string option;
  a_text : string;
  a_head : string option;  (* leading identifier of an ident-path atom *)
  a_path : string list;  (* dotted segments when the atom is an ident path *)
  a_index_idents : string list;  (* idents inside any .(...) index *)
}

let closure_atom atom =
  match read_ident atom.a_text (skip_ws atom.a_text 0) with
  | Some ("fun", _) | Some ("function", _) -> true
  | _ -> false

let rec parse_atom s i =
  let n = String.length s in
  let i = skip_ws s i in
  if i >= n then None
  else
    let c = s.[i] in
    if c = '~' || c = '?' then begin
      match read_ident s (i + 1) with
      | Some (label, j) ->
          if j < n && s.[j] = ':' then begin
            match parse_atom s (j + 1) with
            | Some (atom, k) -> Some ({ atom with a_label = Some label }, k)
            | None -> None
          end
          else
            Some
              ( { a_label = Some label; a_text = label; a_head = Some label; a_path = [ label ];
                  a_index_idents = [] },
                j )
      | None -> None
    end
    else if c = '(' || c = '[' || c = '{' then begin
      match balanced s i with
      | Some j ->
          let inner = String.trim (String.sub s (i + 1) (j - i - 2)) in
          let head, path =
            match read_ident inner 0 with
            | Some (ident, k) when k = String.length inner && not (is_keyword ident) ->
                (Some ident, [ ident ])
            | _ -> (None, [])
          in
          Some ({ a_label = None; a_text = inner; a_head = head; a_path = path; a_index_idents = [] }, j)
      | None -> None
    end
    else if is_digit c || (c = '-' && i + 1 < n && is_digit s.[i + 1]) then begin
      let j = ref (i + 1) in
      while
        !j < n
        && (is_digit s.[!j] || s.[!j] = '.' || s.[!j] = '_' || s.[!j] = 'x' || s.[!j] = 'e'
           || s.[!j] = 'L' || s.[!j] = 'n' || s.[!j] = 'l')
      do
        incr j
      done;
      Some
        ( { a_label = None; a_text = String.sub s i (!j - i); a_head = None; a_path = [];
            a_index_idents = [] },
          !j )
    end
    else if is_ident_start c then begin
      match read_ident s i with
      | Some (ident, j) when not (is_keyword ident) ->
          let segments = ref [ ident ] in
          let index_idents = ref [] in
          let k = ref j in
          let continue = ref true in
          while !continue do
            if !k + 1 < n && s.[!k] = '.' && is_ident_start s.[!k + 1] then begin
              match read_ident s (!k + 1) with
              | Some (segment, m) ->
                  segments := segment :: !segments;
                  k := m
              | None -> continue := false
            end
            else if !k + 1 < n && s.[!k] = '.' && s.[!k + 1] = '(' then begin
              match balanced s (!k + 1) with
              | Some m ->
                  index_idents :=
                    !index_idents @ idents_of_text (String.sub s (!k + 2) (m - !k - 3));
                  k := m
              | None -> continue := false
            end
            else continue := false
          done;
          let path = List.rev !segments in
          Some
            ( { a_label = None; a_text = String.sub s i (!k - i); a_head = Some ident;
                a_path = path; a_index_idents = !index_idents },
              !k )
      | _ -> None
    end
    else None

(* Up to [limit] argument atoms from position [i]; stops at the first token
   that cannot open an atom (an operator, a keyword, a closing bracket). *)
let parse_atoms ?(limit = 12) s i =
  let out = ref [] in
  let pos = ref i in
  let continue = ref true in
  while !continue && List.length !out < limit do
    match parse_atom s !pos with
    | Some (atom, j) ->
        out := atom :: !out;
        pos := j
    | None -> continue := false
  done;
  List.rev !out

(* ---------- Closures ---------- *)

(* Split a [fun p1 p2 -> body] (or [function ...]) atom into binder names
   and body text.  [function] has no binders before its arms. *)
let split_closure text =
  match read_ident text (skip_ws text 0) with
  | Some ("function", j) -> Some ([], String.sub text j (String.length text - j))
  | Some ("fun", j) -> (
      match Str.search_forward (Str.regexp_string "->") text j with
      | exception Not_found -> None
      | arrow ->
          let binders = pattern_binders (String.sub text j (arrow - j)) in
          let body = String.sub text (arrow + 2) (String.length text - arrow - 2) in
          Some (binders, body))
  | _ -> None

(* ---------- Local bindings ---------- *)

type binding_kind =
  | Created  (* let x = ref / Hashtbl.create / { ... } / Prng.split ... *)
  | Alias of string  (* let x = y... : chase [y]'s class *)
  | Indexed of string * string list  (* let x = y.(i): chase [y], but [i]
                                        may prove x a per-task slot *)
  | Opaque  (* let- or fun-bound with an unclassifiable right-hand side *)

let creation_re =
  Str.regexp
    ("^ *\\(ref\\b\\|{\\|\\[|\\|\\[\\]\\|Array\\.\\|Hashtbl\\.\\|Buffer\\.\\|Bytes\\.\\|"
   ^ "Queue\\.\\|Stack\\.\\|Atomic\\.\\|"
   ^ "[A-Z][A-Za-z0-9_'.]*\\.\\(create\\|make\\|make_exn\\|init\\|copy\\|empty\\|singleton\\|"
   ^ "split_n\\|split\\|of_[a-z_]+\\|shards\\)\\b\\)")

let local_let_re =
  Str.regexp "\\blet +\\(rec +\\)?\\([a-z_][A-Za-z0-9_']*\\)\\([^=\n]*\\)=\\(.*\\)$"

let fun_kw_re = Str.regexp "\\bfun\\b"

(* Scan a body for [let]-bound and [fun]-bound names with a coarse kind. *)
let local_bindings body =
  let out = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match Str.search_forward local_let_re body !pos with
    | exception Not_found -> continue := false
    | at ->
        let name = Str.matched_group 2 body in
        let rhs = Str.matched_group 4 body in
        let kind =
          if Str.string_match creation_re rhs 0 then Created
          else
            match parse_atom rhs 0 with
            | Some (atom, _) -> (
                match atom.a_head with
                | Some head when is_lower head.[0] && not (is_keyword head) -> (
                    match atom.a_index_idents with
                    | [] -> Alias head
                    | index -> Indexed (head, index))
                | _ -> Opaque)
            | None -> Opaque
        in
        out := (name, kind) :: !out;
        pos := at + 4
  done;
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match Str.search_forward fun_kw_re body !pos with
    | exception Not_found -> continue := false
    | at -> (
        match Str.search_forward (Str.regexp_string "->") body at with
        | exception Not_found -> continue := false
        | arrow ->
            List.iter
              (fun name -> out := (name, Opaque) :: !out)
              (pattern_binders (String.sub body (at + 3) (arrow - at - 3)));
            pos := at + 3)
  done;
  !out
