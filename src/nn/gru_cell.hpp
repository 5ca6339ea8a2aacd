// GRU cell — the UPDT(·) memory updater of TGN (Eq. 3 / Eq. 8).
//
//   r  = σ(x·W_ir + b_ir + h·W_hr + b_hr)
//   z  = σ(x·W_iz + b_iz + h·W_hz + b_hz)
//   n  = tanh(x·W_in + b_in + r ⊙ (h·W_hn + b_hn))
//   h' = (1 − z) ⊙ n + z ⊙ h
//
// Following the paper (§2.1), gradients are trained *within* each cell
// application: the chain stops at the previous memory state (no BPTT),
// so backward forms the parameter gradients and only the input-gradient
// columns its caller reads — no dh.
//
// The Ctx also carries the cell's scratch (fused gate buffers), so a
// caller that reuses one Ctx across iterations runs allocation-free.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace disttgl::nn {

class GRUCell : public Module {
 public:
  struct Ctx {
    Matrix x, h;        // inputs (training passes only)
    Matrix r, z, n;     // gate activations
    Matrix hn_lin;      // h·W_hn + b_hn, needed for dr
    // Scratch (reused across iterations, not read by backward's math):
    Matrix gi, gh;      // fused [r|z|n] pre-activations, [n x 3d]
    Matrix dgi, dgh;    // fused gradients, backward scratch
  };

  GRUCell(std::string name, std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  std::size_t input_dim() const { return wi_.value.rows(); }
  std::size_t hidden_dim() const { return wh_.value.rows(); }

  // x: [batch x input_dim], h: [batch x hidden_dim] -> h': same as h,
  // reshaped in place. `ctx` holds the scratch; an inference pass
  // (`pass.train == false`) does not copy the inputs. `pass.pool` fans
  // out the gate GEMMs and their bias adds.
  void forward_into(const Matrix& x, const Matrix& h, Ctx& ctx,
                    Matrix& h_new, const Pass& pass = {}) const;

  // Accumulates parameter gradients, and writes x's gradient columns
  // [dx_col0, input_dim) into dx, reshaped to [batch x (input_dim −
  // dx_col0)]: one product over W_ih's trailing rows. Each column's bits
  // equal that column of the full input gradient.
  void backward_into(Ctx& ctx, const Matrix& dh_next, std::size_t dx_col0,
                     Matrix& dx);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  // Fused gate layout along columns: [r | z | n], each hidden_dim wide.
  Parameter wi_;  // [input_dim x 3*hidden]
  Parameter wh_;  // [hidden x 3*hidden]
  Parameter bi_;  // [1 x 3*hidden]
  Parameter bh_;  // [1 x 3*hidden]
};

}  // namespace disttgl::nn
