(* The one persisted-record format.  See store.mli for the frame layout
   and the torn-tail-versus-corruption policy. *)

let magic = "\xb7ISF"
let header = 28 (* magic 4 + length 8 + MD5 16 *)
let digest len payload = Stdlib.Digest.string (len ^ payload)

let frame payload =
  let len = Bytes.create 8 in
  Bytes.set_int64_be len 0 (Int64.of_int (String.length payload));
  let len = Bytes.to_string len in
  String.concat "" [ magic; len; digest len payload; payload ]

(* The payload of the verifiable frame starting at [o], and its end. *)
let frame_at s o =
  let n = String.length s in
  if o + header > n || String.sub s o 4 <> magic then None
  else
    let len = String.get_int64_be s (o + 4) in
    if len < 0L || len > Int64.of_int (n - o - header) then None
    else
      let payload = String.sub s (o + header) (Int64.to_int len) in
      if digest (String.sub s (o + 4) 8) payload <> String.sub s (o + 12) 16
      then None
      else Some (payload, o + header + String.length payload)

(* The verifiable frames from [o] on, and the offset where they stop. *)
let rec frames s o acc =
  match frame_at s o with
  | Some (p, o') -> frames s o' (p :: acc)
  | None -> (List.rev acc, o)

let verifiable_after s o =
  let rec go i =
    match String.index_from_opt s i magic.[0] with
    | None -> false
    | Some j -> frame_at s j <> None || go (j + 1)
  in
  o < String.length s && go (o + 1)

(* ---- append-only log ---- *)

type log = { mu : Mutex.t; oc : out_channel }

let open_log ~what ~owner ~flag ~meta path =
  let s =
    if not (Sys.file_exists path) then ""
    else In_channel.with_open_bin path In_channel.input_all
  in
  let refuse fmt =
    Printf.ksprintf
      (fun m ->
        failwith
          (Printf.sprintf "%s %s %s; delete it or point %s elsewhere" what path
             m flag))
      fmt
  in
  let records, clean =
    if s = "" then ([], 0)
    else
      match frame_at s 0 with
      | None ->
          refuse
            "is non-empty but does not start with a valid %s record; refusing \
             to touch it"
            what
      | Some (prev, o) ->
          if prev <> meta then
            refuse
              "was written by a different %s configuration (%S, this %s is %S)"
              owner prev owner meta;
          frames s o []
  in
  if clean < String.length s then begin
    if verifiable_after s clean then
      refuse "is corrupt at byte %d (intact records follow a damaged one)"
        clean;
    (* a torn tail: drop it so appends continue the verified stream *)
    Unix.truncate path clean
  end;
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if s = "" then begin
    output_string oc (frame meta);
    flush oc
  end;
  ({ mu = Mutex.create (); oc }, records)

let append t payload =
  let f = frame payload in
  Mutex.protect t.mu (fun () ->
      output_string t.oc f;
      flush t.oc)

let close t =
  Mutex.protect t.mu (fun () -> try close_out t.oc with Sys_error _ -> ())

(* ---- single-record atomic file ---- *)

let replace ~dir path s =
  match Filename.temp_file ~temp_dir:dir "isf-" ".tmp" with
  | exception Sys_error _ -> false
  | tmp -> (
      try
        Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
        Sys.rename tmp path;
        true
      with Sys_error _ ->
        (try Sys.remove tmp with Sys_error _ -> ());
        false)

let write_record ~dir path ~key payload =
  replace ~dir path (frame key ^ frame payload)

let read_record ~key path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> `Missing
  | s -> (
      match frames s 0 [] with
      | [ k; payload ], o when o = String.length s ->
          if k = key then `Hit payload
          else
            failwith
              (Printf.sprintf
                 "%s: digest collision (the entry holds a different key %s)"
                 path
                 (String.escaped (String.sub k 0 (min 80 (String.length k)))))
      | _ -> `Corrupt)

let stale_tmp_age = 900.0

let sweep_stale_tmps d =
  let remove_if_stale name =
    String.starts_with ~prefix:"isf-" name
    && String.ends_with ~suffix:".tmp" name
    &&
    let path = Filename.concat d name in
    match Unix.stat path with
    | st when Unix.gettimeofday () -. st.Unix.st_mtime > stale_tmp_age -> (
        try
          Sys.remove path;
          true
        with Sys_error _ -> false)
    | _ | (exception Unix.Unix_error _) -> false
  in
  match Sys.readdir d with
  | exception Sys_error _ -> 0
  | names -> Array.to_list names |> List.filter remove_if_stale |> List.length
