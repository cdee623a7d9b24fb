(* A small OCaml surface lexer for the analysis.  It does not parse the
   language; it only distinguishes code from comments, string literals and
   character literals, so that textual rules never fire on prose or data.
   Comments are collected verbatim (with their line span) because they carry
   suppression directives. *)

type comment = { text : string; start_line : int; end_line : int }

type scrubbed = {
  code_lines : string array;  (* source with comments/strings blanked out *)
  raw_lines : string array;   (* untouched source, for whitespace rules *)
  comments : comment list;    (* in source order *)
}

let split_lines source =
  (* [String.split_on_char '\n'] keeps a trailing empty line for sources
     ending in a newline; that is harmless for line-indexed rules. *)
  Array.of_list (String.split_on_char '\n' source)

let is_quoted_tag_char c = (c >= 'a' && c <= 'z') || c = '_'

(* States of the scan.  OCaml comments nest, and literals inside comments
   are themselves lexed (an unbalanced quote inside a comment is a syntax
   error in real OCaml), so the comment state tracks nesting depth, an
   in-string flag, and an open {tag|...|tag} quoted literal.  Character
   literals are consumed whole in both code and comments, so a ['"'] never
   opens a phantom string and a [{|*)|}] never closes the comment. *)
type state =
  | Code
  | Comment of { depth : int; in_string : bool; quoted : string option }
  | String_lit
  | Quoted_lit of string (* the {tag| ... |tag} delimiter tag *)

let scrub source =
  let raw_lines = split_lines source in
  let n = String.length source in
  let code = Buffer.create n in
  let comment_buf = Buffer.create 64 in
  let comments = ref [] in
  let comment_start = ref 0 in
  let line = ref 1 in
  let state = ref Code in
  let emit c = Buffer.add_char code c in
  let blank c = emit (if c = '\n' then '\n' else ' ') in
  let finish_comment () =
    comments :=
      { text = Buffer.contents comment_buf; start_line = !comment_start; end_line = !line }
      :: !comments;
    Buffer.clear comment_buf
  in
  (* Would source.[i] start a character literal?  A quote is only a literal
     when it closes after one (possibly escaped) character; otherwise it is a
     type variable or a prime in an identifier. *)
  let char_literal_length i =
    if i + 2 < n && source.[i + 1] <> '\\' && source.[i + 1] <> '\'' && source.[i + 2] = '\''
    then Some 3
    else if i + 1 < n && source.[i + 1] = '\\' then begin
      (* Escape sequences span at most 4 chars after the backslash. *)
      let rec close j =
        if j >= n || j > i + 7 then None
        else if source.[j] = '\'' then Some (j - i + 1)
        else close (j + 1)
      in
      close (i + 2)
    end
    else None
  in
  (* Does a quoted-string literal open at i?  Returns its tag. *)
  let quoted_open i =
    if source.[i] <> '{' then None
    else begin
      let rec tag j =
        if j < n && is_quoted_tag_char source.[j] then tag (j + 1)
        else if j < n && source.[j] = '|' then Some (String.sub source (i + 1) (j - i - 1))
        else None
      in
      tag (i + 1)
    end
  in
  let quoted_close tag i =
    (* matches |tag} at position i *)
    let len = String.length tag in
    if i + len + 1 < n && source.[i] = '|' && source.[i + len + 1] = '}' then
      String.sub source (i + 1) len = tag
    else false
  in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then incr line;
    (match !state with
    | Code ->
        if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
          state := Comment { depth = 1; in_string = false; quoted = None };
          comment_start := !line;
          blank c; blank '*';
          incr i
        end
        else if c = '"' then begin
          state := String_lit;
          blank c
        end
        else begin
          match quoted_open !i with
          | Some tag ->
              state := Quoted_lit tag;
              (* blank the opening brace, tag and bar *)
              for _ = 0 to String.length tag + 1 do blank ' ' done;
              i := !i + String.length tag + 1
          | None -> (
              match if c = '\'' then char_literal_length !i else None with
              | Some len ->
                  for j = !i to !i + len - 1 do
                    if source.[j] = '\n' then incr line;
                    blank source.[j]
                  done;
                  i := !i + len - 1
              | None -> emit c)
        end
    | Comment { depth; in_string; quoted = Some tag } ->
        (* A {tag|...|tag} literal open inside the comment: nothing is
           special until the matching |tag}, not even a ( * or * ). *)
        if quoted_close tag !i then begin
          for j = !i to !i + String.length tag + 1 do
            Buffer.add_char comment_buf source.[j];
            blank source.[j]
          done;
          i := !i + String.length tag + 1;
          state := Comment { depth; in_string; quoted = None }
        end
        else begin
          Buffer.add_char comment_buf c;
          blank c
        end
    | Comment { depth; in_string; quoted = None } ->
        if in_string then begin
          Buffer.add_char comment_buf c;
          blank c;
          if c = '\\' && !i + 1 < n then begin
            let next = source.[!i + 1] in
            if next = '\n' then incr line;
            Buffer.add_char comment_buf next;
            blank next;
            incr i
          end
          else if c = '"' then state := Comment { depth; in_string = false; quoted = None }
        end
        else begin
          (* Character literals are consumed whole so '"' and '{' never leak
             into the string/quoted scanners below. *)
          match if c = '\'' then char_literal_length !i else None with
          | Some len ->
              for j = !i to !i + len - 1 do
                if j > !i && source.[j] = '\n' then incr line;
                Buffer.add_char comment_buf source.[j];
                blank source.[j]
              done;
              i := !i + len - 1
          | None -> (
              match quoted_open !i with
              | Some tag ->
                  for j = !i to !i + String.length tag + 1 do
                    Buffer.add_char comment_buf source.[j];
                    blank source.[j]
                  done;
                  i := !i + String.length tag + 1;
                  state := Comment { depth; in_string = false; quoted = Some tag }
              | None ->
                  Buffer.add_char comment_buf c;
                  blank c;
                  if c = '"' then state := Comment { depth; in_string = true; quoted = None }
                  else if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
                    Buffer.add_char comment_buf '*';
                    blank '*';
                    incr i;
                    state := Comment { depth = depth + 1; in_string = false; quoted = None }
                  end
                  else if c = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
                    Buffer.add_char comment_buf ')';
                    blank ')';
                    incr i;
                    if depth = 1 then begin
                      state := Code;
                      finish_comment ()
                    end
                    else state := Comment { depth = depth - 1; in_string = false; quoted = None }
                  end)
        end
    | String_lit ->
        if c = '\\' && !i + 1 < n then begin
          let next = source.[!i + 1] in
          if next = '\n' then incr line;
          blank c; blank next;
          incr i
        end
        else begin
          blank c;
          if c = '"' then state := Code
        end
    | Quoted_lit tag ->
        if quoted_close tag !i then begin
          for _ = 0 to String.length tag + 1 do blank ' ' done;
          i := !i + String.length tag + 1;
          state := Code
        end
        else blank c);
    incr i
  done;
  (* An unterminated comment at end of file still carries suppressions. *)
  (match !state with Comment _ -> finish_comment () | _ -> ());
  {
    code_lines = split_lines (Buffer.contents code);
    raw_lines;
    comments = List.rev !comments;
  }
