type instance = {
  cell_name : string;
  transform : Sn_geometry.Transform.t;
}

type t = {
  name : string;
  shapes : Shape.t list;
  instances : instance list;
}

let make ~name ?(instances = []) shapes = { name; shapes; instances }
let add_shape s c = { c with shapes = s :: c.shapes }
let add_instance i c = { c with instances = i :: c.instances }
