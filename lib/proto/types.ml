type server_id = int

type client_id = int

type fd_token = int

type pid = int

let pid_stride = 1_000_000

let core_of_pid pid = pid / pid_stride

let make_pid ~core ~seq = (core * pid_stride) + seq

type ino = { server : server_id; ino : int }

let root_ino = { server = 0; ino = 1 }

let pp_ino ppf t = Format.fprintf ppf "%d:%d" t.server t.ino

type ftype = Reg | Dir | Fifo

let pp_ftype ppf t =
  Format.pp_print_string ppf
    (match t with Reg -> "reg" | Dir -> "dir" | Fifo -> "fifo")

type attr = {
  a_ino : ino;
  a_ftype : ftype;
  a_size : int;
  a_nlink : int;
  a_dist : bool;
}

type whence = Seek_set | Seek_cur | Seek_end

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  excl : bool;
  trunc : bool;
  append : bool;
}

let flags_r = { rd = true; wr = false; creat = false; excl = false; trunc = false; append = false }

let flags_w = { rd = false; wr = true; creat = true; excl = false; trunc = true; append = false }

let flags_rw = { rd = true; wr = true; creat = false; excl = false; trunc = false; append = false }

let flags_a = { rd = false; wr = true; creat = true; excl = false; trunc = false; append = true }

(* FNV-1a over the directory inode number and the entry name. Native ints
   wrap mod 2^63, so the low 62 bits kept at the end are exactly those of
   the 64-bit hash, without a boxed [Int64] per byte. The offset basis is
   0xcbf29ce484222325 mod 2^63. *)
let hash_name ~dir ~name =
  let[@inline] mix h byte = (h lxor byte) * 0x100000001b3 in
  let h = mix 0x4bf29ce484222325 (dir.server land 0xff) in
  let h = mix h (dir.ino land 0xff) in
  let h = mix h ((dir.ino lsr 8) land 0xff) in
  let h = ref (mix h ((dir.ino lsr 16) land 0xff)) in
  for i = 0 to String.length name - 1 do
    h := mix !h (Char.code (String.unsafe_get name i))
  done;
  !h land 0x3FFFFFFFFFFFFFFF

(* Partial distribution (§6 extension): a distributed directory's shard
   set is [width] servers starting at a per-directory base, so different
   directories hash to different subsets. [width = nservers] reproduces
   the paper exactly (modulo the base rotation, which every client
   computes identically). *)
let shard_base ~nservers ~dir = hash_name ~dir ~name:"" mod nservers

let dentry_server ~dist ~width ~nservers ~dir ~name =
  if not dist then dir.server
  else begin
    let width = max 1 (min width nservers) in
    let base = shard_base ~nservers ~dir in
    (base + (hash_name ~dir ~name mod width)) mod nservers
  end

let shard_servers ~dist ~width ~nservers ~dir =
  if not dist then [ dir.server ]
  else begin
    let width = max 1 (min width nservers) in
    let base = shard_base ~nservers ~dir in
    List.init width (fun i -> (base + i) mod nservers)
  end
