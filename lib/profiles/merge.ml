(* Cross-shard profile aggregation (DESIGN.md §12).

   A fleet run produces one decoded profile per job; this module folds
   them into a single aggregate of all seven kinds.  The aggregate is a
   *canonical* pure-data form: every table is a key-sorted association
   list, every per-site histogram is ordered (count desc, then key asc),
   and the CCT's children are key-sorted — so two aggregates with the
   same content render to the same bytes no matter how many shards they
   passed through or in which order the shards were merged.

   Merge semantics, per kind:

   - call-edge / CFG-edge / field / Ball-Larus path tables are exact
     counters, merged by union and summation — associative and
     commutative by construction.
   - value profiles are Misra-Gries TNV summaries.  Summaries are
     merged by union-sum WITHOUT re-truncating to the table capacity:
     a truncating merge is order-dependent (which entries survive
     depends on which shard arrives first), while the union-sum is
     exact on the summaries and keeps the MG guarantee additively (the
     undercount of a surviving value is at most the sum of the
     per-shard MG errors).  Merged tables may therefore hold more than
     [Value_profile.table_capacity] entries; consumers already rank by
     count, so the extra cold entries are harmless.
   - receiver histograms are exact per-site counters (union-sum).
   - CCTs merge structurally: counts of identical contexts add, walk
     totals add.
   - path profiles aggregate the completed-path table only; regions
     still open at end of run are per-activation transients and are
     dropped at the aggregation boundary.

   [to_collector] rebuilds a Collector.t through the order-preserving
   decode entry points from the flat-slot work (PR 4), inserting in
   canonical order — so every report rendered from a merged aggregate
   is deterministic regardless of shard count, merge order, and worker
   count. *)

type cct_node = { count : int; children : ((string * int) * cct_node) list }

type t = {
  call_edges : ((string * int * string) * int) list; (* caller, site, callee *)
  fields : (string * int) list;
  reads : int;
  writes : int;
  edges : ((string * int * int) * int) list; (* meth, src, dst *)
  values : ((string * int) * ((int * int) list * int)) list;
      (* (meth, site) -> (entries (count desc, value asc), total) *)
  paths : ((string * int * int) * int) list; (* meth, start, path id *)
  receivers : ((string * int) * ((string * int) list * int)) list;
      (* (meth, site) -> (classes (count desc, class asc), total) *)
  walks : int;
  cct : cct_node;
}

let empty_node = { count = 0; children = [] }

let empty =
  {
    call_edges = [];
    fields = [];
    reads = 0;
    writes = 0;
    edges = [];
    values = [];
    paths = [];
    receivers = [];
    walks = 0;
    cct = empty_node;
  }

let is_empty t = t = empty

(* ---- canonical orderings ------------------------------------------- *)

let sort_by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* histogram order: hottest first, key breaks ties — total, not partial,
   so the canonical form is unique *)
let sort_hist l =
  List.sort (fun (ka, ca) (kb, cb) -> compare (cb, ka) (ca, kb)) l

let rec canon_node ~count ~children n =
  {
    count = count n;
    children =
      List.map (fun (key, c) -> (key, canon_node ~count ~children c)) (children n)
      |> sort_by_key;
  }

(* ---- import / export ----------------------------------------------- *)

let of_collector (c : Collector.t) =
  let call_edges =
    Call_edge.to_alist c.Collector.call_edges
    |> List.map (fun (e, n) ->
           ((e.Call_edge.caller, e.Call_edge.site, e.Call_edge.callee), n))
    |> sort_by_key
  in
  let fields = Field_access.to_alist c.Collector.fields |> sort_by_key in
  let values =
    Value_profile.export_sites c.Collector.values
    |> List.map (fun (site, (entries, total)) ->
           (site, (sort_hist entries, total)))
    |> sort_by_key
  in
  let receivers =
    Receiver_profile.export_sites c.Collector.receivers
    |> List.map (fun (site, (classes, total)) ->
           (site, (sort_hist classes, total)))
    |> sort_by_key
  in
  let walks, root = Cct.export c.Collector.cct in
  {
    call_edges;
    fields;
    reads = Field_access.reads c.Collector.fields;
    writes = Field_access.writes c.Collector.fields;
    edges = Edge_profile.to_alist c.Collector.edges |> sort_by_key;
    values;
    paths = Path_profile.to_alist c.Collector.paths |> sort_by_key;
    receivers;
    walks;
    cct =
      canon_node
        ~count:(fun v -> v.Cct.vcount)
        ~children:(fun v -> v.Cct.vchildren)
        root;
  }

let to_collector t =
  let c = Collector.create () in
  List.iter
    (fun ((caller, site, callee), n) ->
      Call_edge.bump c.Collector.call_edges ~caller ~site ~callee ~n)
    t.call_edges;
  List.iter
    (fun (field, n) ->
      Field_access.bump c.Collector.fields ~field ~is_write:false ~n)
    t.fields;
  Field_access.set_totals c.Collector.fields ~reads:t.reads ~writes:t.writes;
  List.iter
    (fun ((meth, src, dst), n) -> Edge_profile.bump c.Collector.edges ~meth ~src ~dst ~n)
    t.edges;
  List.iter
    (fun ((meth, site), (entries, total)) ->
      Value_profile.set_site c.Collector.values ~meth ~site ~entries ~total)
    t.values;
  List.iter
    (fun ((meth, start, path), n) ->
      Path_profile.bump c.Collector.paths ~meth ~start ~path ~n)
    t.paths;
  List.iter
    (fun ((meth, site), (classes, total)) ->
      Receiver_profile.set_site c.Collector.receivers ~meth ~site ~classes ~total)
    t.receivers;
  if t.walks > 0 || t.cct.children <> [] then
    Cct.import c.Collector.cct ~walks:t.walks ~root:t.cct
      ~children:(fun n -> n.children)
      ~count:(fun n -> n.count);
  c

(* ---- merge ---------------------------------------------------------- *)

(* merge-join of two key-sorted association lists, summing counts *)
let rec merge_counts a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, ca) :: ta, (kb, cb) :: tb ->
      let o = compare ka kb in
      if o < 0 then (ka, ca) :: merge_counts ta b
      else if o > 0 then (kb, cb) :: merge_counts a tb
      else (ka, ca + cb) :: merge_counts ta tb

(* merge-join of per-site histograms: entries union-sum (re-canonicalized
   to the total order), totals add *)
let rec merge_sites a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, (ea, ta)) :: resta, (kb, (eb, tb)) :: restb ->
      let o = compare ka kb in
      if o < 0 then (ka, (ea, ta)) :: merge_sites resta b
      else if o > 0 then (kb, (eb, tb)) :: merge_sites a restb
      else
        let entries =
          List.fold_left
            (fun acc (k, n) ->
              match List.assoc_opt k acc with
              | Some m -> (k, m + n) :: List.remove_assoc k acc
              | None -> (k, n) :: acc)
            ea eb
          |> sort_hist
        in
        (ka, (entries, ta + tb)) :: merge_sites resta restb

let rec merge_nodes a b =
  {
    count = a.count + b.count;
    children =
      (let rec go x y =
         match (x, y) with
         | [], l | l, [] -> l
         | (ka, ca) :: tx, (kb, cb) :: ty ->
             let o = compare ka kb in
             if o < 0 then (ka, ca) :: go tx y
             else if o > 0 then (kb, cb) :: go x ty
             else (ka, merge_nodes ca cb) :: go tx ty
       in
       go a.children b.children);
  }

let merge a b =
  {
    call_edges = merge_counts a.call_edges b.call_edges;
    fields = merge_counts a.fields b.fields;
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    edges = merge_counts a.edges b.edges;
    values = merge_sites a.values b.values;
    paths = merge_counts a.paths b.paths;
    receivers = merge_sites a.receivers b.receivers;
    walks = a.walks + b.walks;
    cct = merge_nodes a.cct b.cct;
  }

let merge_list = function [] -> empty | x :: rest -> List.fold_left merge x rest

(* ---- canonical serialization ---------------------------------------- *)

(* One deterministic text rendering per aggregate: section headers with
   entry counts, one record per line, strings in OCaml literal syntax
   (%S) so method/field/class names survive any characters.  This is
   both the on-disk format of [isf merge] inputs and the wire payload
   of the daemon's PROFILE frames. *)

let format_magic = "isf-profile 1"

let render t =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "%s\n" format_magic;
  p "call_edge %d\n" (List.length t.call_edges);
  List.iter
    (fun ((caller, site, callee), n) -> p "e %S %d %S %d\n" caller site callee n)
    t.call_edges;
  p "field %d reads %d writes %d\n" (List.length t.fields) t.reads t.writes;
  List.iter (fun (f, n) -> p "f %S %d\n" f n) t.fields;
  p "cfg_edge %d\n" (List.length t.edges);
  List.iter (fun ((m, s, d), n) -> p "g %S %d %d %d\n" m s d n) t.edges;
  p "value %d\n" (List.length t.values);
  List.iter
    (fun ((meth, site), (entries, total)) ->
      p "v %S %d %d %d" meth site total (List.length entries);
      List.iter (fun (v, n) -> p " %d %d" v n) entries;
      p "\n")
    t.values;
  p "path %d\n" (List.length t.paths);
  List.iter (fun ((m, s, pid), n) -> p "p %S %d %d %d\n" m s pid n) t.paths;
  p "receiver %d\n" (List.length t.receivers);
  List.iter
    (fun ((meth, site), (classes, total)) ->
      p "r %S %d %d %d" meth site total (List.length classes);
      List.iter (fun (cls, n) -> p " %S %d" cls n) classes;
      p "\n")
    t.receivers;
  (* CCT in pre-order, children already canonical; depth reconstructs
     the tree shape on parse *)
  let lines = ref 0 in
  let cbuf = Buffer.create 1024 in
  let rec walk depth node =
    List.iter
      (fun ((meth, site), child) ->
        incr lines;
        Buffer.add_string cbuf
          (Printf.sprintf "c %d %S %d %d\n" depth meth site child.count);
        walk (depth + 1) child)
      node.children
  in
  walk 1 t.cct;
  p "cct %d %d %d\n" t.walks t.cct.count !lines;
  Buffer.add_buffer buf cbuf;
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (render t))

exception Parse_error of string

let parse s =
  let lines = String.split_on_char '\n' s in
  let lines = ref lines in
  let next () =
    match !lines with
    | [] -> raise (Parse_error "truncated profile")
    | l :: rest ->
        lines := rest;
        l
  in
  let fail line = raise (Parse_error ("bad profile line: " ^ line)) in
  let scan line fmt k = try Scanf.sscanf line fmt k with _ -> fail line in
  let header line name =
    scan line "%s %d" (fun tag n -> if tag <> name then fail line else n)
  in
  let rep n f = List.init n (fun _ -> f (next ())) in
  (match next () with
  | l when String.trim l = format_magic -> ()
  | l -> raise (Parse_error ("not an isf profile: " ^ l)));
  let n = header (next ()) "call_edge" in
  let call_edges =
    rep n (fun l ->
        scan l "e %S %d %S %d" (fun caller site callee c ->
            ((caller, site, callee), c)))
  in
  let fields_n, reads, writes =
    let l = next () in
    scan l "field %d reads %d writes %d" (fun a b c -> (a, b, c))
  in
  let fields = rep fields_n (fun l -> scan l "f %S %d" (fun f c -> (f, c))) in
  let n = header (next ()) "cfg_edge" in
  let edges =
    rep n (fun l -> scan l "g %S %d %d %d" (fun m s d c -> ((m, s, d), c)))
  in
  let scan_pairs k sc =
    (* [k] trailing pairs on the line, read via a sub-scanner *)
    List.init k (fun _ -> sc ())
  in
  let n = header (next ()) "value" in
  let values =
    rep n (fun l ->
        scan l "v %S %d %d %d %[^\n]" (fun meth site total k rest ->
            let sb = Scanf.Scanning.from_string rest in
            let entries =
              scan_pairs k (fun () ->
                  try Scanf.bscanf sb " %d %d" (fun v c -> (v, c))
                  with _ -> fail l)
            in
            ((meth, site), (entries, total))))
  in
  let n = header (next ()) "path" in
  let paths =
    rep n (fun l -> scan l "p %S %d %d %d" (fun m s pid c -> ((m, s, pid), c)))
  in
  let n = header (next ()) "receiver" in
  let receivers =
    rep n (fun l ->
        scan l "r %S %d %d %d %[^\n]" (fun meth site total k rest ->
            let sb = Scanf.Scanning.from_string rest in
            let classes =
              scan_pairs k (fun () ->
                  try Scanf.bscanf sb " %S %d" (fun cls c -> (cls, c))
                  with _ -> fail l)
            in
            ((meth, site), (classes, total))))
  in
  let walks, root_count, cct_lines =
    let l = next () in
    scan l "cct %d %d %d" (fun w rc n -> (w, rc, n))
  in
  let rows =
    rep cct_lines (fun l ->
        scan l "c %d %S %d %d" (fun depth meth site count ->
            (depth, (meth, site), count)))
  in
  (* rebuild the tree from the depth-annotated pre-order listing *)
  let rec build depth rows =
    match rows with
    | (d, key, count) :: rest when d = depth ->
        let children, rest = build (depth + 1) rest in
        let siblings, rest = build depth rest in
        (((key, { count; children }) : (string * int) * cct_node) :: siblings, rest)
    | _ -> ([], rows)
  in
  let children, leftover = build 1 rows in
  if leftover <> [] then fail "cct structure";
  {
    call_edges;
    fields;
    reads;
    writes;
    edges;
    values;
    paths;
    receivers;
    walks;
    cct = { count = root_count; children };
  }
