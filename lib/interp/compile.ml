(* Compiled closure-based execution engine.

   The tree-walking interpreter ({!Interp}) re-dispatches on instruction
   and operand variants for every executed instruction. This engine does
   all of that dispatch once, at module-compile time: each IR function is
   lowered to OCaml closures with

   - SSA operand slots resolved to unboxed array indices (a per-function
     int/float type assignment splits the register file into an [int
     array] and a [float array], so the hot loop neither allocates nor
     pattern-matches boxed values);
   - binop/cmp/conversion cases selected per site (one specialized
     closure per instruction instead of a [match] per execution);
   - global symbols resolved to their laid-out addresses;
   - callee names resolved per call site: libc allocation hooks, direct
     IR calls (bound to the callee's compiled body), or the backend's
     intrinsic dispatcher — the runtime never re-classifies a name;
   - per-site one-entry page caches for 8-byte loads/stores, skipping
     the memstore page-directory walk on page-local streaks.

   Blocks become closures driven by an iterative trampoline (loops must
   not grow the OCaml stack), exactly like the interpreter's iterative
   block dispatch. A profiled run (the chunking gate's pre-run) uses a
   second copy of the trampoline that also bumps the block's own hit
   slot, one integer increment per block; [run] folds the non-zero slots
   into the caller's {!Profile.t} once, on return or on a trap. The
   unprofiled trampoline carries no profiling test at all.

   Everything observable is kept bit-identical to the interpreter: the
   same clock ticks in the same order (straight-line batching,
   local-access charges, call overhead), the same backend hooks
   ([on_access], allocation, intrinsics — hence the same guard, fault,
   Shenango-yield and span behaviour), the same telemetry site
   attribution, the same fuel and instruction accounting, the same
   block profile. CI and the
   test suite enforce that equivalence differentially, which is why the
   interpreter stays around as the oracle.

   The type assignment is conservative: any slot or operand whose
   static type disagrees with its use compiles to a closure that raises
   the same {!Interp.Trap} the interpreter would raise when that
   instruction executes — well-typed programs never reach those. *)

let trap fmt = Format.kasprintf (fun s -> raise (Interp.Trap s)) fmt

(* Test-only fault injection: when set, [Add] miscompiles (off-by-one).
   The differential oracle in the test suite flips this to prove a
   miscompiled closure cannot survive the interp/compiled diff. *)
let test_miscompile = ref false

let max_call_depth = 10_000
let global_base = 1 lsl 28
let stack_base = 1 lsl 30

type ty = TInt | TFloat

(* Per-call activation record. [prev] is the index of the block that
   branched here (-1 in the entry block) — phi arms are resolved to a
   predecessor-indexed array at compile time. *)
type frame = {
  ienv : int array;
  fenv : float array;
  iargs : int array;
  fargs : float array;
  mutable prev : int;
}

type state = {
  mutable fuel : int;
  mutable instrs : int;
  mutable depth : int;
  mutable stack_ptr : int;
  (* Return-value slots, written by the callee's [Ret] terminator and
     read by the caller immediately after the trampoline exits. *)
  mutable iret : int;
  mutable fret : float;
}

type cblock = {
  cb_label : string;
  cb_step : frame -> int;
      (* the block body fused with its terminator: runs every instruction
         closure, then returns the next block index (-1 = return) *)
  cb_cost : int; (* instruction-count units per execution: n + 1 *)
  cb_tick : int; (* straight-line cycles per execution: (n + 4) / 4 *)
  mutable cb_hits : int;
      (* executions, counted only on a profiled run ([exec]) and folded
         into the caller's profile when [run] exits *)
}

type cfunc = {
  cf_src : Ir.func;
  cf_params : ty array; (* mutated during inference, read at compile *)
  mutable cf_ret : ty;
  mutable cf_has_floats : bool; (* any float-typed register slot *)
  mutable cf_blocks : cblock array;
}

type ctx = {
  st : state;
  backend : Backend.t;
  m : Ir.modul;
  globals : (string, int) Hashtbl.t;
  cfuncs : (string, cfunc) Hashtbl.t;
  reg_tys : (string, ty array) Hashtbl.t;
  profile : Profile.t option;
}

let layout_globals ctx =
  let cursor = ref global_base in
  List.iter
    (fun (name, size) ->
      Hashtbl.replace ctx.globals name !cursor;
      cursor := !cursor + ((size + 15) land lnot 15))
    (List.rev ctx.m.Ir.globals)

(* Mirrors the interpreter's callee dispatch: only names the intrinsic
   table knows nothing about resolve to defined IR functions. *)
let is_direct_call ctx callee =
  Intrinsics.classify callee = Intrinsics.Unknown
  && Hashtbl.mem ctx.cfuncs callee

(* -- static int/float type assignment ------------------------------------

   Monotone fixpoint over the module: every slot starts [TInt] and is
   promoted to [TFloat] on evidence (float-producing instructions, float
   phi/select arms, float returns and float actuals flowing into
   parameters). Promotion-only, so it terminates. *)

let value_ty ctx (f : Ir.func) rtys = function
  | Ir.Const _ | Ir.Sym _ -> TInt
  | Ir.Constf _ -> TFloat
  | Ir.Reg id -> rtys.(id)
  | Ir.Arg i ->
      let params = (Hashtbl.find ctx.cfuncs f.Ir.fname).cf_params in
      if i >= 0 && i < Array.length params then params.(i) else TInt

let infer_types ctx =
  let changed = ref true in
  let promote_reg rtys id =
    if rtys.(id) = TInt then begin
      rtys.(id) <- TFloat;
      changed := true
    end
  in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ir.func) ->
        let cf = Hashtbl.find ctx.cfuncs f.fname in
        let rtys = Hashtbl.find ctx.reg_tys f.fname in
        let vt = value_ty ctx f rtys in
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.kind with
                | Ir.Fbinop _ | Ir.Si_to_fp _ -> promote_reg rtys i.id
                | Ir.Load { is_float = true; _ } -> promote_reg rtys i.id
                | Ir.Phi incoming ->
                    if List.exists (fun (_, v) -> vt v = TFloat) incoming
                    then promote_reg rtys i.id
                | Ir.Select (_, a, b) ->
                    if vt a = TFloat || vt b = TFloat then
                      promote_reg rtys i.id
                | Ir.Call { callee; args } when is_direct_call ctx callee ->
                    let target = Hashtbl.find ctx.cfuncs callee in
                    List.iteri
                      (fun j a ->
                        if
                          j < Array.length target.cf_params
                          && vt a = TFloat
                          && target.cf_params.(j) = TInt
                        then begin
                          target.cf_params.(j) <- TFloat;
                          changed := true
                        end)
                      args;
                    if target.cf_ret = TFloat then promote_reg rtys i.id
                | _ -> ())
              b.instrs;
            match b.term with
            | Ir.Ret (Some v) ->
                if vt v = TFloat && cf.cf_ret = TInt then begin
                  cf.cf_ret <- TFloat;
                  changed := true
                end
            | _ -> ())
          f.blocks)
      ctx.m.Ir.funcs
  done;
  List.iter
    (fun (f : Ir.func) ->
      let cf = Hashtbl.find ctx.cfuncs f.fname in
      let rtys = Hashtbl.find ctx.reg_tys f.fname in
      cf.cf_has_floats <- Array.exists (fun t -> t = TFloat) rtys)
    ctx.m.Ir.funcs

(* -- operand readers -----------------------------------------------------

   Every operand first compiles to a *shape*. The hot shapes — constant,
   register slot, argument slot — are exposed as data so the instruction
   compilers below can fuse the read straight into the instruction
   closure (a direct array index instead of a nested closure call on the
   execution path). [IFn]/[FFn] is the general fallback and carries the
   type-mismatch traps, unknown globals, and out-of-range argument
   indices; [iread]/[fread] convert any shape back into a plain reader
   for the cold consumers. *)

type ishape =
  | IConst of int
  | ISlot of int (* fr.ienv.(i) *)
  | IArg of int (* fr.iargs.(i) *)
  | IFn of (frame -> int)

type fshape =
  | FConst of float
  | FSlot of int (* fr.fenv.(i) *)
  | FArg of int (* fr.fargs.(i) *)
  | FFn of (frame -> float)

let int_trap : frame -> int = fun _ -> trap "expected int, got float"
let float_trap : frame -> float = fun _ -> trap "expected float, got int"

let ishape ctx (f : Ir.func) rtys v : ishape =
  match v with
  | Ir.Const n -> IConst n
  | Ir.Constf _ -> IFn int_trap
  | Ir.Reg id -> if rtys.(id) = TInt then ISlot id else IFn int_trap
  | Ir.Arg i ->
      let params = (Hashtbl.find ctx.cfuncs f.fname).cf_params in
      if i < 0 || i >= Array.length params then IFn (fun fr -> fr.iargs.(i))
      else if params.(i) = TInt then IArg i
      else IFn int_trap
  | Ir.Sym s -> (
      match Hashtbl.find_opt ctx.globals s with
      | Some addr -> IConst addr
      | None -> IFn (fun _ -> trap "unknown global %s" s))

let fshape ctx (f : Ir.func) rtys v : fshape =
  match v with
  | Ir.Constf x -> FConst x
  | Ir.Const _ | Ir.Sym _ -> FFn float_trap
  | Ir.Reg id -> if rtys.(id) = TFloat then FSlot id else FFn float_trap
  | Ir.Arg i ->
      let params = (Hashtbl.find ctx.cfuncs f.fname).cf_params in
      if i < 0 || i >= Array.length params then FFn (fun fr -> fr.fargs.(i))
      else if params.(i) = TFloat then FArg i
      else FFn float_trap

let iread : ishape -> frame -> int = function
  | IConst n -> fun _ -> n
  | ISlot i -> fun fr -> Array.unsafe_get fr.ienv i
  | IArg i -> fun fr -> Array.unsafe_get fr.iargs i
  | IFn g -> g

let fread : fshape -> frame -> float = function
  | FConst x -> fun _ -> x
  | FSlot i -> fun fr -> Array.unsafe_get fr.fenv i
  | FArg i -> fun fr -> Array.unsafe_get fr.fargs i
  | FFn g -> g

let compile_int ctx f rtys v = iread (ishape ctx f rtys v)
let compile_float ctx f rtys v = fread (fshape ctx f rtys v)

(* -- fused arithmetic and comparison closures ----------------------------

   Without flambda, a generic [lift2 op sa sb] would keep the operator
   an indirect call per executed instruction, so the hot operators are
   monomorphized by hand: for each one, the dominant shape pairs get a
   closure that reads both operands inline (pure loads and ALU ops, no
   nested calls, no float boxing). Rare shapes fall back to reader
   closures — same behaviour, one extra call. The divisions stay on the
   fallback path; they trap on zero divisors anyway. *)

let compile_binop op sa sb id : frame -> unit =
  let gen op2 =
    let a = iread sa and b = iread sb in
    fun fr -> Array.unsafe_set fr.ienv id (op2 (a fr) (b fr))
  in
  match (op, sa, sb) with
  | Ir.Add, _, _ when !test_miscompile ->
      (* Deliberate off-by-one so the differential oracle has something
         to catch; see [test_miscompile]. *)
      gen (fun a b -> a + b + 1)
  | Ir.Add, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i + Array.unsafe_get fr.ienv j)
  | Ir.Add, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i + c)
  | Ir.Add, IConst c, ISlot j ->
      fun fr -> Array.unsafe_set fr.ienv id (c + Array.unsafe_get fr.ienv j)
  | Ir.Add, ISlot i, IArg j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i + Array.unsafe_get fr.iargs j)
  | Ir.Add, _, _ -> gen ( + )
  | Ir.Sub, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i - Array.unsafe_get fr.ienv j)
  | Ir.Sub, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i - c)
  | Ir.Sub, IConst c, ISlot j ->
      fun fr -> Array.unsafe_set fr.ienv id (c - Array.unsafe_get fr.ienv j)
  | Ir.Sub, _, _ -> gen ( - )
  | Ir.Mul, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i * Array.unsafe_get fr.ienv j)
  | Ir.Mul, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i * c)
  | Ir.Mul, IConst c, ISlot j ->
      fun fr -> Array.unsafe_set fr.ienv id (c * Array.unsafe_get fr.ienv j)
  | Ir.Mul, _, _ -> gen ( * )
  | Ir.And, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i land Array.unsafe_get fr.ienv j)
  | Ir.And, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i land c)
  | Ir.And, _, _ -> gen ( land )
  | Ir.Or, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i lor Array.unsafe_get fr.ienv j)
  | Ir.Or, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lor c)
  | Ir.Or, _, _ -> gen ( lor )
  | Ir.Xor, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i lxor Array.unsafe_get fr.ienv j)
  | Ir.Xor, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lxor c)
  | Ir.Xor, _, _ -> gen ( lxor )
  | Ir.Shl, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lsl c)
  | Ir.Shl, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i lsl Array.unsafe_get fr.ienv j)
  | Ir.Shl, _, _ -> gen ( lsl )
  | Ir.Lshr, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lsr c)
  | Ir.Lshr, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i lsr Array.unsafe_get fr.ienv j)
  | Ir.Lshr, _, _ -> gen ( lsr )
  | Ir.Ashr, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i asr c)
  | Ir.Ashr, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i asr Array.unsafe_get fr.ienv j)
  | Ir.Ashr, _, _ -> gen ( asr )
  | Ir.Sdiv, _, _ ->
      let a = iread sa and b = iread sb in
      fun fr ->
        let x = a fr and y = b fr in
        if y = 0 then trap "division by zero"
        else Array.unsafe_set fr.ienv id (x / y)
  | Ir.Srem, _, _ ->
      let a = iread sa and b = iread sb in
      fun fr ->
        let x = a fr and y = b fr in
        if y = 0 then trap "remainder by zero"
        else Array.unsafe_set fr.ienv id (x mod y)

let compile_icmp op sa sb id : frame -> unit =
  let gen cmp =
    let a = iread sa and b = iread sb in
    fun fr -> Array.unsafe_set fr.ienv id (if cmp (a fr) (b fr) then 1 else 0)
  in
  match (op, sa, sb) with
  | Ir.Eq, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i = Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Eq, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i = c then 1 else 0)
  | Ir.Eq, _, _ -> gen ( = )
  | Ir.Ne, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <> Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Ne, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <> c then 1 else 0)
  | Ir.Ne, _, _ -> gen ( <> )
  | Ir.Lt, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i < Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Lt, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i < c then 1 else 0)
  | Ir.Lt, ISlot i, IArg j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i < Array.unsafe_get fr.iargs j then 1
           else 0)
  | Ir.Lt, _, _ -> gen ( < )
  | Ir.Le, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <= Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Le, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <= c then 1 else 0)
  | Ir.Le, _, _ -> gen ( <= )
  | Ir.Gt, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i > Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Gt, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i > c then 1 else 0)
  | Ir.Gt, _, _ -> gen ( > )
  | Ir.Ge, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i >= Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Ge, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i >= c then 1 else 0)
  | Ir.Ge, _, _ -> gen ( >= )

let compile_fbinop op sa sb id : frame -> unit =
  let gen op2 =
    let a = fread sa and b = fread sb in
    fun fr -> Array.unsafe_set fr.fenv id (op2 (a fr) (b fr))
  in
  match (op, sa, sb) with
  | Ir.Fadd, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i +. Array.unsafe_get fr.fenv j)
  | Ir.Fadd, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i +. c)
  | Ir.Fadd, _, _ -> gen ( +. )
  | Ir.Fsub, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i -. Array.unsafe_get fr.fenv j)
  | Ir.Fsub, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i -. c)
  | Ir.Fsub, _, _ -> gen ( -. )
  | Ir.Fmul, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i *. Array.unsafe_get fr.fenv j)
  | Ir.Fmul, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i *. c)
  | Ir.Fmul, _, _ -> gen ( *. )
  | Ir.Fdiv, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i /. Array.unsafe_get fr.fenv j)
  | Ir.Fdiv, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i /. c)
  | Ir.Fdiv, _, _ -> gen ( /. )

let compile_fcmp op sa sb id : frame -> unit =
  let gen cmp =
    let a = fread sa and b = fread sb in
    fun fr -> Array.unsafe_set fr.ienv id (if cmp (a fr) (b fr) then 1 else 0)
  in
  match (op, sa, sb) with
  | Ir.Lt, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i < Array.unsafe_get fr.fenv j then 1
           else 0)
  | Ir.Lt, FSlot i, FConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i < c then 1 else 0)
  | Ir.Lt, _, _ -> gen ( < )
  | Ir.Le, _, _ -> gen ( <= )
  | Ir.Gt, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i > Array.unsafe_get fr.fenv j then 1
           else 0)
  | Ir.Gt, FSlot i, FConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i > c then 1 else 0)
  | Ir.Gt, _, _ -> gen ( > )
  | Ir.Eq, _, _ -> gen ( = )
  | Ir.Ne, _, _ -> gen ( <> )
  | Ir.Ge, _, _ -> gen ( >= )

(* An [Icmp] whose result feeds the block's own [Cbr] compiles into the
   terminator: compare, store the 0/1 result (later blocks may still
   read the slot), and pick the successor — one closure instead of two.
   [fin] is a known local function, so the calls below are direct. *)
let compile_icmp_br op sa sb id bidx kt ke : frame -> int =
  let fin fr v =
    Array.unsafe_set fr.ienv id (if v then 1 else 0);
    fr.prev <- bidx;
    if v then kt else ke
  in
  let gen cmp =
    let a = iread sa and b = iread sb in
    fun fr -> fin fr (cmp (a fr) (b fr))
  in
  match (op, sa, sb) with
  | Ir.Eq, ISlot i, ISlot j ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i = Array.unsafe_get fr.ienv j)
  | Ir.Eq, ISlot i, IConst c -> fun fr -> fin fr (Array.unsafe_get fr.ienv i = c)
  | Ir.Eq, _, _ -> gen ( = )
  | Ir.Ne, ISlot i, ISlot j ->
      fun fr ->
        fin fr (Array.unsafe_get fr.ienv i <> Array.unsafe_get fr.ienv j)
  | Ir.Ne, ISlot i, IConst c ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i <> c)
  | Ir.Ne, _, _ -> gen ( <> )
  | Ir.Lt, ISlot i, ISlot j ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i < Array.unsafe_get fr.ienv j)
  | Ir.Lt, ISlot i, IConst c -> fun fr -> fin fr (Array.unsafe_get fr.ienv i < c)
  | Ir.Lt, ISlot i, IArg j ->
      fun fr ->
        fin fr (Array.unsafe_get fr.ienv i < Array.unsafe_get fr.iargs j)
  | Ir.Lt, _, _ -> gen ( < )
  | Ir.Le, ISlot i, ISlot j ->
      fun fr ->
        fin fr (Array.unsafe_get fr.ienv i <= Array.unsafe_get fr.ienv j)
  | Ir.Le, ISlot i, IConst c ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i <= c)
  | Ir.Le, _, _ -> gen ( <= )
  | Ir.Gt, ISlot i, ISlot j ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i > Array.unsafe_get fr.ienv j)
  | Ir.Gt, ISlot i, IConst c -> fun fr -> fin fr (Array.unsafe_get fr.ienv i > c)
  | Ir.Gt, _, _ -> gen ( > )
  | Ir.Ge, ISlot i, ISlot j ->
      fun fr ->
        fin fr (Array.unsafe_get fr.ienv i >= Array.unsafe_get fr.ienv j)
  | Ir.Ge, ISlot i, IConst c ->
      fun fr -> fin fr (Array.unsafe_get fr.ienv i >= c)
  | Ir.Ge, _, _ -> gen ( >= )

(* -- memory access compilation -------------------------------------------

   Loads and stores take their address through an *address mode*: either
   the pointer operand itself ([APlain]), or — when a [Gep] immediately
   feeds the access and nothing executes in between — the fused address
   computation [AGep], which evaluates base + index*scale + offset
   inline, stores it in the gep's own slot (later instructions may reuse
   the pointer), and hands it to the access. One closure replaces the
   gep/access pair. *)

type amode =
  | APlain of ishape
  | AGep of int * ishape * ishape * int * int
      (* dst slot, base, index, scale, offset *)

(* Generic address reader for the cold paths; keeps the AGep side effect
   (writing the gep's slot). *)
let amode_read = function
  | APlain sp -> iread sp
  | AGep (dst, sb, sx, scale, offset) ->
      let bs = iread sb and ix = iread sx in
      fun fr ->
        let addr = bs fr + (ix fr * scale) + offset in
        Array.unsafe_set fr.ienv dst addr;
        addr

let compile_load ctx (i : Ir.instr) ~size ~is_float ~fname amode :
    frame -> unit =
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let store = b.Backend.store in
  let tel = b.Backend.telemetry in
  let on_access = b.Backend.on_access in
  let local_access = b.Backend.cost.Memsim.Cost_model.local_access in
  let id = i.Ir.id in
  (* Both compile-time constants for this run: a Nop sink ignores
     [set_site], and the no-op access hook does nothing — elide the
     calls from the closures entirely. *)
  let site = Telemetry.Sink.is_active tel in
  let hook = not (on_access == Backend.no_access) in
  if is_float then begin
    (* Per-site one-entry page cache; a Memstore page handle is stable
       for the store's lifetime (see Memstore.page_of). [body] is a
       known local function: the address-mode match below fuses the
       address into the closure and the call to [body] compiles to a
       direct jump, not a closure dispatch. *)
    let cache_idx = ref (-1) and cache_page = ref Bytes.empty in
    let body fr addr =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:false;
      Memsim.Clock.tick clock local_access;
      let off = addr land Memsim.Memstore.page_mask in
      if off + 8 <= Memsim.Memstore.page_size then begin
        let idx = addr lsr Memsim.Memstore.page_bits in
        let pg =
          if idx = !cache_idx then !cache_page
          else begin
            let pg = Memsim.Memstore.page_of store idx in
            cache_idx := idx;
            cache_page := pg;
            pg
          end
        in
        Array.unsafe_set fr.fenv id
          (Int64.float_of_bits (Bytes.get_int64_le pg off))
      end
      else Array.unsafe_set fr.fenv id (Memsim.Memstore.load_float store ~addr)
    in
    match amode with
    | APlain (ISlot p) -> fun fr -> body fr (Array.unsafe_get fr.ienv p)
    | AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.ienv bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr
    | AGep (dst, ISlot bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr ->
          let addr = Array.unsafe_get fr.ienv bi + add in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr
    | am ->
        let p = amode_read am in
        fun fr -> body fr (p fr)
  end
  else if size = 8 then begin
    let cache_idx = ref (-1) and cache_page = ref Bytes.empty in
    let body fr addr =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:false;
      Memsim.Clock.tick clock local_access;
      let off = addr land Memsim.Memstore.page_mask in
      if off + 8 <= Memsim.Memstore.page_size then begin
        let idx = addr lsr Memsim.Memstore.page_bits in
        let pg =
          if idx = !cache_idx then !cache_page
          else begin
            let pg = Memsim.Memstore.page_of store idx in
            cache_idx := idx;
            cache_page := pg;
            pg
          end
        in
        Array.unsafe_set fr.ienv id
          (Int64.to_int (Bytes.get_int64_le pg off) land max_int)
      end
      else Array.unsafe_set fr.ienv id (Memsim.Memstore.load store ~addr ~size:8)
    in
    match amode with
    | APlain (ISlot p) -> fun fr -> body fr (Array.unsafe_get fr.ienv p)
    | AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.ienv bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr
    | AGep (dst, ISlot bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr ->
          let addr = Array.unsafe_get fr.ienv bi + add in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr
    | AGep (dst, IArg bi, ISlot xi, scale, offset) ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.iargs bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr
    | am ->
        let p = amode_read am in
        fun fr -> body fr (p fr)
  end
  else
    let body fr addr =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:false;
      Memsim.Clock.tick clock local_access;
      Array.unsafe_set fr.ienv id (Memsim.Memstore.load store ~addr ~size)
    in
    match amode with
    | APlain (ISlot p) -> fun fr -> body fr (Array.unsafe_get fr.ienv p)
    | am ->
        let p = amode_read am in
        fun fr -> body fr (p fr)

let compile_store ctx f rtys (i : Ir.instr) ~size ~is_float ~v ~fname amode :
    frame -> unit =
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let store = b.Backend.store in
  let tel = b.Backend.telemetry in
  let on_access = b.Backend.on_access in
  let local_access = b.Backend.cost.Memsim.Cost_model.local_access in
  let id = i.Ir.id in
  let site = Telemetry.Sink.is_active tel in
  let hook = not (on_access == Backend.no_access) in
  if is_float then begin
    let sv = fshape ctx f rtys v in
    let cache_idx = ref (-1) and cache_page = ref Bytes.empty in
    (* The hot arm is written out in full (rather than through a [body]
       with a float parameter) so the value never crosses a call
       boundary — OCaml would box it. *)
    let slow am sv =
      let p = amode_read am and x = fread sv in
      fun fr ->
        let addr = p fr in
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        if hook then on_access ~addr ~size ~write:true;
        Memsim.Clock.tick clock local_access;
        let off = addr land Memsim.Memstore.page_mask in
        (if off + 8 <= Memsim.Memstore.page_size then begin
           let idx = addr lsr Memsim.Memstore.page_bits in
           let pg =
             if idx = !cache_idx then !cache_page
             else begin
               let pg = Memsim.Memstore.page_of store idx in
               cache_idx := idx;
               cache_page := pg;
               pg
             end
           in
           Bytes.set_int64_le pg off (Int64.bits_of_float (x fr))
         end
         else Memsim.Memstore.store_float store ~addr (x fr));
        Array.unsafe_set fr.ienv id 0
    in
    match (amode, sv) with
    | AGep (dst, ISlot bi, ISlot xi, scale, offset), FSlot vi ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.ienv bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          if hook then on_access ~addr ~size ~write:true;
          Memsim.Clock.tick clock local_access;
          let off = addr land Memsim.Memstore.page_mask in
          (if off + 8 <= Memsim.Memstore.page_size then begin
             let idx = addr lsr Memsim.Memstore.page_bits in
             let pg =
               if idx = !cache_idx then !cache_page
               else begin
                 let pg = Memsim.Memstore.page_of store idx in
                 cache_idx := idx;
                 cache_page := pg;
                 pg
               end
             in
             Bytes.set_int64_le pg off
               (Int64.bits_of_float (Array.unsafe_get fr.fenv vi))
           end
           else
             Memsim.Memstore.store_float store ~addr
               (Array.unsafe_get fr.fenv vi));
          Array.unsafe_set fr.ienv id 0
    | APlain (ISlot pi), FSlot vi ->
        fun fr ->
          let addr = Array.unsafe_get fr.ienv pi in
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          if hook then on_access ~addr ~size ~write:true;
          Memsim.Clock.tick clock local_access;
          let off = addr land Memsim.Memstore.page_mask in
          (if off + 8 <= Memsim.Memstore.page_size then begin
             let idx = addr lsr Memsim.Memstore.page_bits in
             let pg =
               if idx = !cache_idx then !cache_page
               else begin
                 let pg = Memsim.Memstore.page_of store idx in
                 cache_idx := idx;
                 cache_page := pg;
                 pg
               end
             in
             Bytes.set_int64_le pg off
               (Int64.bits_of_float (Array.unsafe_get fr.fenv vi))
           end
           else
             Memsim.Memstore.store_float store ~addr
               (Array.unsafe_get fr.fenv vi));
          Array.unsafe_set fr.ienv id 0
    | am, sv -> slow am sv
  end
  else if size = 8 then begin
    let sv = ishape ctx f rtys v in
    let cache_idx = ref (-1) and cache_page = ref Bytes.empty in
    let body fr addr x =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:true;
      Memsim.Clock.tick clock local_access;
      let off = addr land Memsim.Memstore.page_mask in
      (if off + 8 <= Memsim.Memstore.page_size then begin
         let idx = addr lsr Memsim.Memstore.page_bits in
         let pg =
           if idx = !cache_idx then !cache_page
           else begin
             let pg = Memsim.Memstore.page_of store idx in
             cache_idx := idx;
             cache_page := pg;
             pg
           end
         in
         Bytes.set_int64_le pg off (Int64.of_int x)
       end
       else Memsim.Memstore.store store ~addr ~size:8 x);
      Array.unsafe_set fr.ienv id 0
    in
    match (amode, sv) with
    | AGep (dst, ISlot bi, ISlot xi, scale, offset), ISlot vi ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.ienv bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr (Array.unsafe_get fr.ienv vi)
    | AGep (dst, ISlot bi, IConst k, scale, offset), ISlot vi ->
        let add = (k * scale) + offset in
        fun fr ->
          let addr = Array.unsafe_get fr.ienv bi + add in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr (Array.unsafe_get fr.ienv vi)
    | AGep (dst, ISlot bi, ISlot xi, scale, offset), IConst c ->
        fun fr ->
          let addr =
            Array.unsafe_get fr.ienv bi
            + (Array.unsafe_get fr.ienv xi * scale)
            + offset
          in
          Array.unsafe_set fr.ienv dst addr;
          body fr addr c
    | APlain (ISlot pi), ISlot vi ->
        fun fr ->
          body fr (Array.unsafe_get fr.ienv pi) (Array.unsafe_get fr.ienv vi)
    | APlain (ISlot pi), IConst c ->
        fun fr -> body fr (Array.unsafe_get fr.ienv pi) c
    | am, sv ->
        let p = amode_read am and x = iread sv in
        fun fr -> body fr (p fr) (x fr)
  end
  else
    let sv = ishape ctx f rtys v in
    let body fr addr x =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:true;
      Memsim.Clock.tick clock local_access;
      Memsim.Memstore.store store ~addr ~size x;
      Array.unsafe_set fr.ienv id 0
    in
    match (amode, sv) with
    | APlain (ISlot pi), ISlot vi ->
        fun fr ->
          body fr (Array.unsafe_get fr.ienv pi) (Array.unsafe_get fr.ienv vi)
    | am, sv ->
        let p = amode_read am and x = iread sv in
        fun fr -> body fr (p fr) (x fr)

(* -- execution ----------------------------------------------------------- *)

let exec ctx cfn fr =
  let st = ctx.st in
  let clock = ctx.backend.Backend.clock in
  let blocks = cfn.cf_blocks in
  if Array.length blocks = 0 then invalid_arg "index out of bounds";
  let cur = ref 0 in
  (* The profiled loop is split out so the common (unprofiled) path pays
     no per-block option match; the profiled one counts into the block's
     own slot. *)
  match ctx.profile with
  | None ->
      while !cur >= 0 do
        let b = Array.unsafe_get blocks !cur in
        st.fuel <- st.fuel - b.cb_cost;
        if st.fuel < 0 then trap "out of fuel (infinite loop?)";
        st.instrs <- st.instrs + b.cb_cost;
        Memsim.Clock.tick clock b.cb_tick;
        cur := b.cb_step fr
      done
  | Some _ ->
      while !cur >= 0 do
        let b = Array.unsafe_get blocks !cur in
        b.cb_hits <- b.cb_hits + 1;
        st.fuel <- st.fuel - b.cb_cost;
        if st.fuel < 0 then trap "out of fuel (infinite loop?)";
        st.instrs <- st.instrs + b.cb_cost;
        Memsim.Clock.tick clock b.cb_tick;
        cur := b.cb_step fr
      done

(* Call a compiled function with already-built argument arrays: the
   interpreter's [call_function] — depth and span accounting, stack
   save/restore — with the arity check hoisted to compile time for
   direct calls ([checked_arity]). *)
let invoke ctx cfn ~checked_arity (ia : int array) (fa : float array) =
  let st = ctx.st in
  let f = cfn.cf_src in
  if (not checked_arity) && Array.length ia <> f.Ir.nparams then
    trap "%s expects %d arguments, got %d" f.Ir.fname f.Ir.nparams
      (Array.length ia);
  st.depth <- st.depth + 1;
  if st.depth > max_call_depth then trap "call depth exceeded (recursion?)";
  let tel = ctx.backend.Backend.telemetry in
  let span_it = st.depth <= 2 && Telemetry.Sink.is_active tel in
  let t0 = if span_it then Telemetry.Sink.timestamp tel else 0 in
  let fr =
    {
      ienv = Array.make (max 1 f.Ir.next_id) 0;
      fenv =
        (if cfn.cf_has_floats then Array.make (max 1 f.Ir.next_id) 0.0
         else [||]);
      iargs = ia;
      fargs = fa;
      prev = -1;
    }
  in
  let saved_sp = st.stack_ptr in
  exec ctx cfn fr;
  if span_it then
    Telemetry.Sink.span tel ~name:f.Ir.fname ~cat:"call" ~start:t0 ();
  st.stack_ptr <- saved_sp;
  st.depth <- st.depth - 1

(* -- instruction compilation --------------------------------------------- *)

let compile_call ctx (f : Ir.func) rtys (i : Ir.instr) callee cargs :
    frame -> unit =
  let st = ctx.st in
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let tel = b.Backend.telemetry in
  let fname = f.Ir.fname in
  let id = i.Ir.id in
  (* Compile-time constant for this run: a Nop sink ignores [set_site]. *)
  let site = Telemetry.Sink.is_active tel in
  let ci = compile_int ctx f rtys in
  let cf = compile_float ctx f rtys in
  let oob : frame -> int =
   (* Mirrors the interpreter indexing actuals past the argument list. *)
   fun _ -> invalid_arg "index out of bounds"
  in
  let arg n = match List.nth_opt cargs n with Some v -> ci v | None -> oob in
  match callee with
  | "malloc" ->
      let a0 = arg 0 in
      let malloc = b.Backend.malloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        Array.unsafe_set fr.ienv id (malloc (a0 fr))
  | "calloc" ->
      let a0 = arg 0 and a1 = arg 1 in
      let malloc = b.Backend.malloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        Array.unsafe_set fr.ienv id (malloc (a0 fr * a1 fr))
  | "realloc" ->
      let a0 = arg 0 and a1 = arg 1 in
      let realloc = b.Backend.realloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        Array.unsafe_set fr.ienv id (realloc (a0 fr) (a1 fr))
  | "free" ->
      let a0 = arg 0 in
      let free = b.Backend.free in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        free (a0 fr);
        Array.unsafe_set fr.ienv id 0
  | _ when is_direct_call ctx callee ->
      (* Direct call to a defined IR function: target, arity, and the
         per-parameter marshalling plan are all resolved here, once. *)
      let target = Hashtbl.find ctx.cfuncs callee in
      let nactual = List.length cargs in
      let nparams = target.cf_src.Ir.nparams in
      if nactual <> nparams then (
        fun _ ->
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          Memsim.Clock.tick clock 5;
          trap "%s expects %d arguments, got %d" callee nparams nactual)
      else begin
        let fillers =
          Array.of_list
            (List.mapi
               (fun j v ->
                 if j < Array.length target.cf_params
                    && target.cf_params.(j) = TFloat
                 then begin
                   let r = cf v in
                   fun fr ia fa ->
                     ignore (ia : int array);
                     Array.unsafe_set fa j (r fr)
                 end
                 else begin
                   let r = ci v in
                   fun fr ia fa ->
                     ignore (fa : float array);
                     Array.unsafe_set ia j (r fr)
                 end)
               cargs)
        in
        let ret_float = target.cf_ret = TFloat in
        fun fr ->
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          Memsim.Clock.tick clock 5 (* call overhead *);
          let ia = Array.make nparams 0 in
          let fa =
            if nparams = 0 then [||] else Array.make nparams 0.0
          in
          for j = 0 to nparams - 1 do
            (Array.unsafe_get fillers j) fr ia fa
          done;
          invoke ctx target ~checked_arity:true ia fa;
          if ret_float then Array.unsafe_set fr.fenv id st.fret
          else Array.unsafe_set fr.ienv id st.iret
      end
  | _ ->
      (* Runtime intrinsic (guards, chunk accesses, spans, bookkeeping
         hooks) through the backend's dispatcher, with the interpreter's
         fallbacks for names the backend does not handle. Arguments are
         coerced to ints exactly like the interpreter's [as_int] map. *)
      let readers = Array.of_list (List.map ci cargs) in
      let n = Array.length readers in
      let intrinsic = b.Backend.intrinsic in
      let is_hook = String.length callee > 0 && callee.[0] = '!' in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        let a = Array.make n 0 in
        for j = 0 to n - 1 do
          Array.unsafe_set a j ((Array.unsafe_get readers j) fr)
        done;
        match intrinsic callee a with
        | Some r -> Array.unsafe_set fr.ienv id r
        | None ->
            if is_hook then trap "unknown runtime hook %s" callee
            else begin
              Memsim.Clock.tick clock 5 (* call overhead *);
              match Hashtbl.find_opt ctx.cfuncs callee with
              | None -> trap "unknown function %s" callee
              | Some target ->
                  let fa =
                    if n = 0 then [||] else Array.make n 0.0
                  in
                  invoke ctx target ~checked_arity:false a fa;
                  if target.cf_ret = TFloat then
                    (* Inference could not see this dynamically-resolved
                       callee, so the result slot may be int-typed. *)
                    if id < Array.length fr.fenv then fr.fenv.(id) <- st.fret
                    else trap "expected int, got float"
                  else Array.unsafe_set fr.ienv id st.iret
            end

let compile_instr ctx (f : Ir.func) rtys label_index (i : Ir.instr) :
    frame -> unit =
  let st = ctx.st in
  let fname = f.Ir.fname in
  let id = i.Ir.id in
  let seti fr v = Array.unsafe_set fr.ienv id v in
  let setf fr v = Array.unsafe_set fr.fenv id v in
  let si v = ishape ctx f rtys v in
  let sf v = fshape ctx f rtys v in
  match i.Ir.kind with
  | Ir.Binop (op, a, b) -> compile_binop op (si a) (si b) id
  | Ir.Fbinop (op, a, b) -> compile_fbinop op (sf a) (sf b) id
  | Ir.Icmp (op, a, b) -> compile_icmp op (si a) (si b) id
  | Ir.Fcmp (op, a, b) -> compile_fcmp op (sf a) (sf b) id
  | Ir.Si_to_fp a -> (
      match si a with
      | ISlot i ->
          fun fr -> setf fr (float_of_int (Array.unsafe_get fr.ienv i))
      | s ->
          let a = iread s in
          fun fr -> setf fr (float_of_int (a fr)))
  | Ir.Fp_to_si a -> (
      match sf a with
      | FSlot i -> fun fr -> seti fr (int_of_float (Array.unsafe_get fr.fenv i))
      | s ->
          let a = fread s in
          fun fr -> seti fr (int_of_float (a fr)))
  | Ir.Load { ptr; size; is_float } ->
      compile_load ctx i ~size ~is_float ~fname (APlain (si ptr))
  | Ir.Store { ptr; size; is_float; v } ->
      compile_store ctx f rtys i ~size ~is_float ~v ~fname (APlain (si ptr))
  | Ir.Gep { base; index; scale; offset } -> (
      match (si base, si index) with
      | ISlot b, IConst k ->
          let add = (k * scale) + offset in
          fun fr -> seti fr (Array.unsafe_get fr.ienv b + add)
      | ISlot b, ISlot i ->
          fun fr ->
            seti fr
              (Array.unsafe_get fr.ienv b
              + (Array.unsafe_get fr.ienv i * scale)
              + offset)
      | IArg b, ISlot i ->
          fun fr ->
            seti fr
              (Array.unsafe_get fr.iargs b
              + (Array.unsafe_get fr.ienv i * scale)
              + offset)
      | IArg b, IConst k ->
          let add = (k * scale) + offset in
          fun fr -> seti fr (Array.unsafe_get fr.iargs b + add)
      | IConst b, ISlot i ->
          fun fr -> seti fr (b + (Array.unsafe_get fr.ienv i * scale) + offset)
      | sb, IConst k ->
          let bs = iread sb in
          let add = (k * scale) + offset in
          fun fr -> seti fr (bs fr + add)
      | sb, sx ->
          let bs = iread sb and ix = iread sx in
          fun fr -> seti fr (bs fr + (ix fr * scale) + offset))
  | Ir.Alloca bytes ->
      let aligned = (bytes + 15) land lnot 15 in
      fun fr ->
        let addr = st.stack_ptr in
        st.stack_ptr <- addr + aligned;
        seti fr addr
  | Ir.Call { callee; args } -> compile_call ctx f rtys i callee args
  | Ir.Phi incoming ->
      (* Arms stay as shapes: selecting by predecessor index then
         switching on the shape tag is a jump table, not a closure
         call. Missing arms keep a trap closure naming the
         predecessor. *)
      let nblocks = List.length f.Ir.blocks in
      let labels = Array.make nblocks "<?>" in
      List.iteri (fun k (b : Ir.block) -> labels.(k) <- b.label) f.Ir.blocks;
      let miss p =
        if p < 0 then trap "%s: phi has no arm for predecessor <entry>" fname
        else trap "%s: phi has no arm for predecessor %s" fname labels.(p)
      in
      if rtys.(id) = TInt then begin
        let resolved =
          List.filter_map
            (fun (l, v) ->
              match Hashtbl.find_opt label_index l with
              | Some k -> Some (k, si v)
              | None -> None)
            incoming
        in
        match resolved with
        (* The ubiquitous loop-header phi: one entry arm, one latch arm.
           A pair of compare-and-reads beats the arms-array tag switch. *)
        | [ (k0, s0); (k1, s1) ] when k0 <> k1 -> (
            match (s0, s1) with
            | ISlot i0, ISlot i1 ->
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then seti fr (Array.unsafe_get fr.ienv i0)
                  else if p = k1 then seti fr (Array.unsafe_get fr.ienv i1)
                  else miss p
            | IConst c0, ISlot i1 ->
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then seti fr c0
                  else if p = k1 then seti fr (Array.unsafe_get fr.ienv i1)
                  else miss p
            | ISlot i0, IConst c1 ->
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then seti fr (Array.unsafe_get fr.ienv i0)
                  else if p = k1 then seti fr c1
                  else miss p
            | s0, s1 ->
                let g0 = iread s0 and g1 = iread s1 in
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then seti fr (g0 fr)
                  else if p = k1 then seti fr (g1 fr)
                  else miss p)
        | _ ->
            let arms =
              Array.init nblocks (fun k ->
                  IFn
                    (fun _ ->
                      trap "%s: phi has no arm for predecessor %s" fname
                        labels.(k)))
            in
            List.iter
              (fun (l, v) ->
                match Hashtbl.find_opt label_index l with
                | Some k -> arms.(k) <- si v
                | None -> ())
              incoming;
            fun fr ->
              let p = fr.prev in
              if p < 0 then
                trap "%s: phi has no arm for predecessor <entry>" fname
              else
                match Array.unsafe_get arms p with
                | ISlot i -> seti fr (Array.unsafe_get fr.ienv i)
                | IConst c -> seti fr c
                | IArg i -> seti fr (Array.unsafe_get fr.iargs i)
                | IFn g -> seti fr (g fr)
      end
      else begin
        let resolved =
          List.filter_map
            (fun (l, v) ->
              match Hashtbl.find_opt label_index l with
              | Some k -> Some (k, sf v)
              | None -> None)
            incoming
        in
        match resolved with
        | [ (k0, s0); (k1, s1) ] when k0 <> k1 -> (
            match (s0, s1) with
            | FSlot i0, FSlot i1 ->
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then setf fr (Array.unsafe_get fr.fenv i0)
                  else if p = k1 then setf fr (Array.unsafe_get fr.fenv i1)
                  else miss p
            | FConst c0, FSlot i1 ->
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then setf fr c0
                  else if p = k1 then setf fr (Array.unsafe_get fr.fenv i1)
                  else miss p
            | s0, s1 ->
                let g0 = fread s0 and g1 = fread s1 in
                fun fr ->
                  let p = fr.prev in
                  if p = k0 then setf fr (g0 fr)
                  else if p = k1 then setf fr (g1 fr)
                  else miss p)
        | _ ->
            let arms =
              Array.init nblocks (fun k ->
                  FFn
                    (fun _ ->
                      trap "%s: phi has no arm for predecessor %s" fname
                        labels.(k)))
            in
            List.iter
              (fun (l, v) ->
                match Hashtbl.find_opt label_index l with
                | Some k -> arms.(k) <- sf v
                | None -> ())
              incoming;
            fun fr ->
              let p = fr.prev in
              if p < 0 then
                trap "%s: phi has no arm for predecessor <entry>" fname
              else
                match Array.unsafe_get arms p with
                | FSlot i -> setf fr (Array.unsafe_get fr.fenv i)
                | FConst c -> setf fr c
                | FArg i -> setf fr (Array.unsafe_get fr.fargs i)
                | FFn g -> setf fr (g fr)
      end
  | Ir.Select (c, a, b) ->
      if rtys.(id) = TInt then begin
        match (si c, si a, si b) with
        | ISlot k, ISlot ai, ISlot bi ->
            fun fr ->
              seti fr
                (if Array.unsafe_get fr.ienv k <> 0 then
                   Array.unsafe_get fr.ienv ai
                 else Array.unsafe_get fr.ienv bi)
        | sc, sa, sb ->
            let c = iread sc and a = iread sa and b = iread sb in
            fun fr -> seti fr (if c fr <> 0 then a fr else b fr)
      end
      else begin
        match (si c, sf a, sf b) with
        | ISlot k, FSlot ai, FSlot bi ->
            fun fr ->
              setf fr
                (if Array.unsafe_get fr.ienv k <> 0 then
                   Array.unsafe_get fr.fenv ai
                 else Array.unsafe_get fr.fenv bi)
        | sc, sa, sb ->
            let c = iread sc and a = fread sa and b = fread sb in
            fun fr -> setf fr (if c fr <> 0 then a fr else b fr)
      end

let compile_term ctx (f : Ir.func) cfn rtys label_index bidx
    (t : Ir.terminator) : frame -> int =
  let st = ctx.st in
  let ci = compile_int ctx f rtys in
  let cf = compile_float ctx f rtys in
  let target l = Hashtbl.find_opt label_index l in
  match t with
  | Ir.Br l -> (
      match target l with
      | Some k ->
          fun fr ->
            fr.prev <- bidx;
            k
      | None ->
          (* Mirrors the interpreter's [Hashtbl.find]: the unknown label
             only faults if the branch actually executes. *)
          fun _ -> raise Not_found)
  | Ir.Cbr (c, t, e) -> (
      let sc = ishape ctx f rtys c in
      match (target t, target e) with
      | Some kt, Some ke -> (
          match sc with
          | ISlot i ->
              fun fr ->
                fr.prev <- bidx;
                if Array.unsafe_get fr.ienv i <> 0 then kt else ke
          | _ ->
              let c = iread sc in
              fun fr ->
                fr.prev <- bidx;
                if c fr <> 0 then kt else ke)
      | ot, oe -> (
          let c = iread sc in
          fun fr ->
            fr.prev <- bidx;
            match if c fr <> 0 then ot else oe with
            | Some k -> k
            | None -> raise Not_found))
  | Ir.Ret None ->
      if cfn.cf_ret = TFloat then fun _ -> trap "expected float, got int"
      else fun _ ->
        st.iret <- 0;
        -1
  | Ir.Ret (Some v) ->
      if cfn.cf_ret = TFloat then begin
        let r = cf v in
        fun fr ->
          st.fret <- r fr;
          -1
      end
      else begin
        let r = ci v in
        fun fr ->
          st.iret <- r fr;
          -1
      end
  | Ir.Unreachable ->
      let fname = f.Ir.fname in
      let label =
        match List.nth_opt f.Ir.blocks bidx with
        | Some b -> b.Ir.label
        | None -> "<?>"
      in
      fun _ -> trap "%s: reached unreachable in %s" fname label

(* Straight-line chaining: a block's instruction closures become one
   closure calling them in sequence, so the trampoline pays no
   per-instruction loop counter or array bound. *)
let rec chain (code : (frame -> unit) array) lo n : frame -> unit =
  match n with
  | 0 -> fun _ -> ()
  | 1 -> Array.unsafe_get code lo
  | 2 ->
      let a = code.(lo) and b = code.(lo + 1) in
      fun fr ->
        a fr;
        b fr
  | 3 ->
      let a = code.(lo) and b = code.(lo + 1) and c = code.(lo + 2) in
      fun fr ->
        a fr;
        b fr;
        c fr
  | 4 ->
      let a = code.(lo)
      and b = code.(lo + 1)
      and c = code.(lo + 2)
      and d = code.(lo + 3) in
      fun fr ->
        a fr;
        b fr;
        c fr;
        d fr
  | n ->
      let h = n / 2 in
      let a = chain code lo h and b = chain code (lo + h) (n - h) in
      fun fr ->
        a fr;
        b fr

(* Fuse the body chain with the terminator into one step closure, so the
   trampoline pays a single indirect call per block execution. *)
let chain_step (code : (frame -> unit) array) (term : frame -> int) :
    frame -> int =
  match Array.length code with
  | 0 -> term
  | 1 ->
      let a = code.(0) in
      fun fr ->
        a fr;
        term fr
  | 2 ->
      let a = code.(0) and b = code.(1) in
      fun fr ->
        a fr;
        b fr;
        term fr
  | 3 ->
      let a = code.(0) and b = code.(1) and c = code.(2) in
      fun fr ->
        a fr;
        b fr;
        c fr;
        term fr
  | 4 ->
      let a = code.(0) and b = code.(1) and c = code.(2) and d = code.(3) in
      fun fr ->
        a fr;
        b fr;
        c fr;
        d fr;
        term fr
  | n ->
      let body = chain code 0 n in
      fun fr ->
        body fr;
        term fr

let compile_func ctx (f : Ir.func) =
  let cfn = Hashtbl.find ctx.cfuncs f.fname in
  let rtys = Hashtbl.find ctx.reg_tys f.fname in
  let label_index = Hashtbl.create 16 in
  List.iteri
    (fun k (b : Ir.block) -> Hashtbl.replace label_index b.label k)
    f.blocks;
  cfn.cf_blocks <-
    Array.of_list
      (List.mapi
         (fun bidx (b : Ir.block) ->
           (* Cost accounting is over the *source* instruction count —
              fusion below merges closures, never changes what the run
              charges or reports. *)
           let n_ir = List.length b.instrs in
           (* icmp → cbr fusion: when the block's last instruction is
              the compare feeding its own conditional branch, both
              compile into the terminator. *)
           let instrs, fused_term =
             match (b.term, List.rev b.instrs) with
             | ( Ir.Cbr (Ir.Reg cid, tl, el),
                 { Ir.kind = Ir.Icmp (op, x, y); id } :: rest )
               when id = cid && rtys.(cid) = TInt -> (
                 match
                   ( Hashtbl.find_opt label_index tl,
                     Hashtbl.find_opt label_index el )
                 with
                 | Some kt, Some ke ->
                     ( List.rev rest,
                       Some
                         (compile_icmp_br op
                            (ishape ctx f rtys x)
                            (ishape ctx f rtys y)
                            cid bidx kt ke) )
                 | _ -> (b.instrs, None))
             | _ -> (b.instrs, None)
           in
           (* gep → load/store fusion: an address computation consumed
              by the immediately following access folds into it. *)
           let rec build acc = function
             | [] -> List.rev acc
             | (g : Ir.instr) :: rest -> (
                 match (g.Ir.kind, rest) with
                 | ( Ir.Gep { base; index; scale; offset },
                     ({ Ir.kind = Ir.Load { ptr = Ir.Reg pid; size; is_float };
                        _
                      } as li)
                     :: rest2 )
                   when pid = g.Ir.id ->
                     let am =
                       AGep
                         ( g.Ir.id,
                           ishape ctx f rtys base,
                           ishape ctx f rtys index,
                           scale,
                           offset )
                     in
                     build
                       (compile_load ctx li ~size ~is_float ~fname:f.Ir.fname
                          am
                       :: acc)
                       rest2
                 | ( Ir.Gep { base; index; scale; offset },
                     ({ Ir.kind =
                          Ir.Store { ptr = Ir.Reg pid; size; is_float; v };
                        _
                      } as sti)
                     :: rest2 )
                   when pid = g.Ir.id ->
                     let am =
                       AGep
                         ( g.Ir.id,
                           ishape ctx f rtys base,
                           ishape ctx f rtys index,
                           scale,
                           offset )
                     in
                     build
                       (compile_store ctx f rtys sti ~size ~is_float ~v
                          ~fname:f.Ir.fname am
                       :: acc)
                       rest2
                 | _ -> build (compile_instr ctx f rtys label_index g :: acc) rest)
           in
           let code = Array.of_list (build [] instrs) in
           let term =
             match fused_term with
             | Some t -> t
             | None -> compile_term ctx f cfn rtys label_index bidx b.term
           in
           {
             cb_label = b.label;
             cb_step = chain_step code term;
             cb_cost = n_ir + 1;
             cb_tick = (n_ir + 4) / 4;
             cb_hits = 0;
           })
         f.blocks)

let compile_module ctx =
  (* Phase 1: register shells so recursion and mutual calls resolve. *)
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace ctx.cfuncs f.fname
        {
          cf_src = f;
          cf_params = Array.make f.nparams TInt;
          cf_ret = TInt;
          cf_has_floats = false;
          cf_blocks = [||];
        };
      Hashtbl.replace ctx.reg_tys f.fname (Array.make (max 1 f.next_id) TInt))
    ctx.m.Ir.funcs;
  (* Phase 2: int/float slot assignment (module-wide fixpoint). *)
  infer_types ctx;
  (* Phase 3: lower every body to closures. *)
  List.iter (compile_func ctx) ctx.m.Ir.funcs

let run ?profile ?(fuel = 2_000_000_000) ?(args = []) backend m ~entry =
  let ctx =
    {
      st =
        {
          fuel;
          instrs = 0;
          depth = 0;
          stack_ptr = stack_base;
          iret = 0;
          fret = 0.0;
        };
      backend;
      m;
      globals = Hashtbl.create 8;
      cfuncs = Hashtbl.create 8;
      reg_tys = Hashtbl.create 8;
      profile;
    }
  in
  layout_globals ctx;
  compile_module ctx;
  let cfn =
    match Hashtbl.find_opt ctx.cfuncs entry with
    | Some c -> c
    | None -> trap "unknown function %s" entry
  in
  let ia = Array.of_list args in
  let fa =
    if Array.length ia = 0 then [||] else Array.make (Array.length ia) 0.0
  in
  let fold_profile () =
    Option.iter
      (fun prof ->
        Hashtbl.iter
          (fun fname cf ->
            Array.iter
              (fun b ->
                if b.cb_hits > 0 then
                  Profile.add_block prof ~func:fname ~block:b.cb_label b.cb_hits)
              cf.cf_blocks)
          ctx.cfuncs)
      profile
  in
  Fun.protect ~finally:fold_profile (fun () ->
      invoke ctx cfn ~checked_arity:false ia fa);
  if cfn.cf_ret = TFloat then trap "expected int, got float";
  {
    Interp.ret = ctx.st.iret;
    cycles = Memsim.Clock.cycles backend.Backend.clock;
    instrs_executed = ctx.st.instrs;
  }
