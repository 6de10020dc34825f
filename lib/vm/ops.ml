(* One compiled definition per straight-line opcode.

   Every compiled tier — the Fast engine's per-word chain, its fused
   straight-line runs, and the trace tier's fused chains — takes the
   body of a straight-line word from [compile] and keeps only its own
   accounting around it.  A body is effect-only: registers, heap,
   d-cache, output and RNG, in exactly [Machine.step]'s order, ending in
   a tail call of [next].  The word's static cycle charge is returned
   beside it, never applied by it, because each tier lands that charge
   at its own granularity (per word, per fused run, per trace segment).
   That is sound because no body reads [st.cycles]: the only cycle
   readers are the fuel gate, the timer device and the adaptive
   safepoint, and every tier applies the charge before the next of
   those.  A body that raises leaves its charge unapplied, which no
   caller can see — a runtime error aborts the run and carries no cycle
   count.

   Unresolvable references (an unknown field, static or class) compile
   into bodies that raise the reference's error, with the same message
   after the same observable effects, rather than failing at compile
   time: the reference only faults when the word actually executes.

   [Machine.step] stays a separate, re-matching implementation: it is
   the oracle the differential suites compare these bodies against. *)

module Lir = Ir.Lir
open Machine

type k = state -> unit
type t = { body : k -> k; charge : int; dmiss : bool }

let straight_line = function
  | Lir.Move _ | Lir.Unop _ | Lir.Binop _ | Lir.Get_field _ | Lir.Put_field _
  | Lir.Get_static _ | Lir.Put_static _ | Lir.New_object _ | Lir.Array_load _
  | Lir.Array_store _ | Lir.Array_length _ | Lir.Instance_test _ ->
      true
  | Lir.Intrinsic { name = "print" | "rand"; args = [ _ ]; _ } -> true
  | Lir.Intrinsic _ (* yield/spawn reschedule; malformed ones raise late *)
  | Lir.New_array _ (* dynamic length: no static charge *)
  | Lir.Call _ | Lir.Yieldpoint _ | Lir.Instrument _ | Lir.Guarded_instrument _
    ->
      false

let operand = function
  | Lir.Reg r -> fun (fr : frame) -> fr.regs.(r)
  | Lir.Imm n -> fun (_ : frame) -> n

let binop_fn = function
  | Lir.Add -> ( + )
  | Lir.Sub -> ( - )
  | Lir.Mul -> ( * )
  | Lir.Div -> fun a b -> if b = 0 then rt_err "division by zero" else a / b
  | Lir.Rem -> fun a b -> if b = 0 then rt_err "division by zero" else a mod b
  | Lir.And -> ( land )
  | Lir.Or -> ( lor )
  | Lir.Xor -> ( lxor )
  | Lir.Shl -> fun a b -> a lsl (b land 31)
  | Lir.Shr -> fun a b -> a asr (b land 31)
  | Lir.Lt -> fun a b -> if a < b then 1 else 0
  | Lir.Le -> fun a b -> if a <= b then 1 else 0
  | Lir.Gt -> fun a b -> if a > b then 1 else 0
  | Lir.Ge -> fun a b -> if a >= b then 1 else 0
  | Lir.Eq -> fun a b -> if a = b then 1 else 0
  | Lir.Ne -> fun a b -> if a <> b then 1 else 0

(* Every body below is written [fun next -> unary @@ fun st -> ...].  The
   barrier keeps the two functions apart: merged into one two-argument
   function, each [body next] would be a partial application whose
   every call goes through a currying stub. *)
let unary (f : k) : k = Sys.opaque_identity f

let binop r op a b : k -> k =
  match (op, a, b) with
  (* hand-specialized hot operators: without flambda a shared
     [binop_fn] closure costs an indirect call per ALU op *)
  | Lir.Add, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) + regs.(y);
        next st
  | Lir.Add, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) + n;
        next st
  | Lir.Sub, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) - regs.(y);
        next st
  | Lir.Sub, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) - n;
        next st
  | Lir.Mul, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) * regs.(y);
        next st
  | Lir.Mul, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) * n;
        next st
  | Lir.And, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) land regs.(y);
        next st
  | Lir.And, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) land n;
        next st
  | Lir.Or, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) lor regs.(y);
        next st
  | Lir.Or, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) lor n;
        next st
  | Lir.Xor, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) lxor regs.(y);
        next st
  | Lir.Xor, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(x) lxor n;
        next st
  | Lir.Lt, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) < regs.(y) then 1 else 0);
        next st
  | Lir.Lt, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) < n then 1 else 0);
        next st
  | Lir.Le, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) <= regs.(y) then 1 else 0);
        next st
  | Lir.Le, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) <= n then 1 else 0);
        next st
  | Lir.Gt, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) > regs.(y) then 1 else 0);
        next st
  | Lir.Gt, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) > n then 1 else 0);
        next st
  | Lir.Ge, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) >= regs.(y) then 1 else 0);
        next st
  | Lir.Ge, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) >= n then 1 else 0);
        next st
  | Lir.Eq, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) = regs.(y) then 1 else 0);
        next st
  | Lir.Eq, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) = n then 1 else 0);
        next st
  | Lir.Ne, Lir.Reg x, Lir.Reg y ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) <> regs.(y) then 1 else 0);
        next st
  | Lir.Ne, Lir.Reg x, Lir.Imm n ->
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- (if regs.(x) <> n then 1 else 0);
        next st
  (* the rest (shifts, division, Imm-first shapes) through the shared
     operator table *)
  | _, Lir.Reg x, Lir.Reg y ->
      let f = binop_fn op in
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- f regs.(x) regs.(y);
        next st
  | _, Lir.Reg x, Lir.Imm n ->
      let f = binop_fn op in
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- f regs.(x) n;
        next st
  | _, Lir.Imm n, Lir.Reg y ->
      let f = binop_fn op in
      fun next ->
        unary @@ fun st ->
        let regs = st.cur_fr.regs in
        regs.(r) <- f n regs.(y);
        next st
  | _, Lir.Imm n, Lir.Imm p ->
      let f = binop_fn op in
      fun next ->
        unary @@ fun st ->
        st.cur_fr.regs.(r) <- f n p;
        next st

let compile (costs : Costs.t) (prog : Program.t) (m : Program.meth)
    (ins : Lir.instr) : t =
  let cc_mem = costs.Costs.mem in
  let cc_alu = costs.Costs.alu in
  let op ?(dmiss = false) charge body = { body; charge; dmiss } in
  let field fld =
    Hashtbl.find_opt prog.Program.field_offset (Lir.string_of_field_ref fld)
  in
  let static fld =
    Hashtbl.find_opt prog.Program.static_offset (Lir.string_of_field_ref fld)
  in
  match ins with
  | Lir.Move (r, Lir.Imm n) ->
      op costs.Costs.move (fun next ->
          unary @@ fun st ->
          st.cur_fr.regs.(r) <- n;
          next st)
  | Lir.Move (r, Lir.Reg s) ->
      op costs.Costs.move (fun next ->
          unary @@ fun st ->
          let regs = st.cur_fr.regs in
          regs.(r) <- regs.(s);
          next st)
  | Lir.Unop (r, u, a) ->
      op cc_alu
        (match (u, a) with
        | Lir.Neg, Lir.Reg s ->
            fun next ->
              unary @@ fun st ->
              let regs = st.cur_fr.regs in
              regs.(r) <- -regs.(s);
              next st
        | Lir.Not, Lir.Reg s ->
            fun next ->
              unary @@ fun st ->
              let regs = st.cur_fr.regs in
              regs.(r) <- (if regs.(s) = 0 then 1 else 0);
              next st
        | _, Lir.Imm n ->
            let v =
              match u with Lir.Neg -> -n | Lir.Not -> if n = 0 then 1 else 0
            in
            fun next ->
              unary @@ fun st ->
              st.cur_fr.regs.(r) <- v;
              next st)
  | Lir.Binop (r, o, a, b) -> op cc_alu (binop r o a b)
  | Lir.Get_field (r, o, fld) -> (
      let eo = operand o in
      match field fld with
      | Some off ->
          op ~dmiss:true cc_mem
            (match o with
            | Lir.Reg ro ->
                fun next ->
                  unary @@ fun st ->
                  let regs = st.cur_fr.regs in
                  let obj = regs.(ro) in
                  let fields = obj_fields st obj in
                  data_access st (cell_addr st obj + off);
                  regs.(r) <- fields.(off);
                  next st
            | Lir.Imm _ ->
                fun next ->
                  unary @@ fun st ->
                  let fr = st.cur_fr in
                  let obj = eo fr in
                  let fields = obj_fields st obj in
                  data_access st (cell_addr st obj + off);
                  fr.regs.(r) <- fields.(off);
                  next st)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          op cc_mem (fun _ ->
              unary @@ fun st ->
              ignore (obj_fields st (eo st.cur_fr) : int array);
              rt_err "unresolved field %s" fstr))
  | Lir.Put_field (o, fld, v) -> (
      let eo = operand o in
      match field fld with
      | Some off ->
          op ~dmiss:true cc_mem
            (match (o, v) with
            | Lir.Reg ro, Lir.Reg rv ->
                fun next ->
                  unary @@ fun st ->
                  let regs = st.cur_fr.regs in
                  let obj = regs.(ro) in
                  let fields = obj_fields st obj in
                  data_access st (cell_addr st obj + off);
                  fields.(off) <- regs.(rv);
                  next st
            | _ ->
                let ev = operand v in
                fun next ->
                  unary @@ fun st ->
                  let fr = st.cur_fr in
                  let obj = eo fr in
                  let fields = obj_fields st obj in
                  data_access st (cell_addr st obj + off);
                  fields.(off) <- ev fr;
                  next st)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          op cc_mem (fun _ ->
              unary @@ fun st ->
              ignore (obj_fields st (eo st.cur_fr) : int array);
              rt_err "unresolved field %s" fstr))
  | Lir.Get_static (r, fld) -> (
      match static fld with
      | Some off ->
          op ~dmiss:true cc_mem (fun next ->
              unary @@ fun st ->
              data_access st off;
              st.cur_fr.regs.(r) <- st.globals.(off);
              next st)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          op cc_mem (fun _ ->
              unary @@ fun _ -> rt_err "unresolved static field %s" fstr))
  | Lir.Put_static (fld, v) -> (
      let ev = operand v in
      match static fld with
      | Some off ->
          op ~dmiss:true cc_mem (fun next ->
              unary @@ fun st ->
              data_access st off;
              st.globals.(off) <- ev st.cur_fr;
              next st)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          op cc_mem (fun _ ->
              unary @@ fun _ -> rt_err "unresolved static field %s" fstr))
  | Lir.New_object (r, cname) -> (
      match Hashtbl.find_opt prog.Program.class_id_of_name cname with
      | Some cid ->
          let n = prog.Program.classes.(cid).Program.n_fields in
          let slots = max n 1 in
          op
            (costs.Costs.alloc_base + (costs.Costs.alloc_per_slot * n))
            (fun next ->
              unary @@ fun st ->
              st.cur_fr.regs.(r) <-
                alloc st (Obj { cls = cid; fields = Array.make slots 0 });
              next st)
      | None ->
          op 0 (fun _ -> unary @@ fun _ -> rt_err "unknown class %s" cname))
  | Lir.Array_load (r, a, i) ->
      let mstr = Lir.string_of_method_ref m.Program.mref in
      op ~dmiss:true cc_mem
        (match (a, i) with
        | Lir.Reg ra, Lir.Reg ri ->
            fun next ->
              unary @@ fun st ->
              let regs = st.cur_fr.regs in
              let arr = regs.(ra) in
              let cells = arr_cells st arr in
              let i = regs.(ri) in
              if i < 0 || i >= Array.length cells then
                rt_err "array index %d out of bounds (%s)" i mstr;
              data_access st (cell_addr st arr + i);
              regs.(r) <- cells.(i);
              next st
        | _ ->
            let ea = operand a in
            let ei = operand i in
            fun next ->
              unary @@ fun st ->
              let fr = st.cur_fr in
              let arr = ea fr in
              let cells = arr_cells st arr in
              let i = ei fr in
              if i < 0 || i >= Array.length cells then
                rt_err "array index %d out of bounds (%s)" i mstr;
              data_access st (cell_addr st arr + i);
              fr.regs.(r) <- cells.(i);
              next st)
  | Lir.Array_store (a, i, v) ->
      let mstr = Lir.string_of_method_ref m.Program.mref in
      op ~dmiss:true cc_mem
        (match (a, i, v) with
        | Lir.Reg ra, Lir.Reg ri, Lir.Reg rv ->
            fun next ->
              unary @@ fun st ->
              let regs = st.cur_fr.regs in
              let arr = regs.(ra) in
              let cells = arr_cells st arr in
              let i = regs.(ri) in
              if i < 0 || i >= Array.length cells then
                rt_err "array index %d out of bounds (%s)" i mstr;
              data_access st (cell_addr st arr + i);
              cells.(i) <- regs.(rv);
              next st
        | _ ->
            let ea = operand a in
            let ei = operand i in
            let ev = operand v in
            fun next ->
              unary @@ fun st ->
              let fr = st.cur_fr in
              let arr = ea fr in
              let cells = arr_cells st arr in
              let i = ei fr in
              if i < 0 || i >= Array.length cells then
                rt_err "array index %d out of bounds (%s)" i mstr;
              data_access st (cell_addr st arr + i);
              cells.(i) <- ev fr;
              next st)
  | Lir.Array_length (r, a) ->
      let ea = operand a in
      op cc_mem (fun next ->
          unary @@ fun st ->
          let fr = st.cur_fr in
          fr.regs.(r) <- Array.length (arr_cells st (ea fr));
          next st)
  | Lir.Instance_test (r, o, cname) ->
      let eo = operand o in
      let cid =
        match Hashtbl.find_opt prog.Program.class_id_of_name cname with
        | Some cid -> cid
        | None -> -1 (* never matches: class names in the heap are linked *)
      in
      op (cc_mem + cc_alu) (fun next ->
          unary @@ fun st ->
          let fr = st.cur_fr in
          let v = eo fr in
          fr.regs.(r) <-
            (if v <= 0 || v > Ir.Vec.length st.heap then 0
             else
               match Ir.Vec.unsafe_get st.heap (v - 1) with
               | Obj obj -> if obj.cls = cid then 1 else 0
               | Arr _ -> 0);
          next st)
  | Lir.Intrinsic { dst; name = ("print" | "rand") as name; args = [ a ] } ->
      let e = operand a in
      op costs.Costs.intrinsic
        (match (name, a, dst) with
        | "print", _, _ ->
            fun next ->
              unary @@ fun st ->
              Buffer.add_string st.out (string_of_int (e st.cur_fr));
              Buffer.add_char st.out '\n';
              next st
        | _, Lir.Reg s, Some r ->
            fun next ->
              unary @@ fun st ->
              let regs = st.cur_fr.regs in
              regs.(r) <- next_rand st regs.(s);
              next st
        | _, _, Some r ->
            fun next ->
              unary @@ fun st ->
              let fr = st.cur_fr in
              fr.regs.(r) <- next_rand st (e fr);
              next st
        | _, _, None ->
            (* the reference advances the RNG even with no destination *)
            fun next ->
              unary @@ fun st ->
              ignore (next_rand st (e st.cur_fr) : int);
              next st)
  | _ -> invalid_arg "Ops.compile: not a straight-line word"
