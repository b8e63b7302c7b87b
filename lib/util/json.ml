(* JSON emission and parsing (see json.mli).  The documents this tool
   writes are fixed and shallow, so emission is plain string building
   around one escaper; the parser is a hand-rolled recursive descent
   over the full RFC 8259 grammar. *)

(* --- emission ---------------------------------------------------------- *)

let escape s =
  let plain c = c >= ' ' && c <> '"' && c <> '\\' in
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let string s = "\"" ^ escape s ^ "\""

(* Printf "%g" can produce OCaml-isms ("inf", "nan") that are not JSON,
   so non-finite values are rendered as strings. *)
let float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else string (Float.to_string f)

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> string k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

(* --- parsing ----------------------------------------------------------- *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* The four hex digits after "\u", as a UTF-16 code unit. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let unicode_escape b =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "unpaired low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "unpaired high surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired high surrogate";
      Buffer.add_utf_8_uchar b (Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)))
    end
    else Buffer.add_utf_8_uchar b (Uchar.of_int hi)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            let c = s.[!pos] in
            advance ();
            (match c with
            | '"' | '\\' | '/' -> Buffer.add_char b c
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' -> unicode_escape b
            | _ ->
                decr pos;
                fail "bad escape");
            go ()
        | c when c < ' ' -> fail "raw control character in string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let digits () =
    let d0 = !pos in
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = d0 then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (* No leading zeros: "0" stands alone before any fraction. *)
    if peek () = Some '0' then advance () else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lexeme = String.sub s start (!pos - start) in
    match (if !integral then Int64.of_string_opt lexeme else None) with
    | Some i -> Int i
    | None -> Float (float_of_string lexeme)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let number = function Int i -> Some (Int64.to_float i) | Float f -> Some f | _ -> None
