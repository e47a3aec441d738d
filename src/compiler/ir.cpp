#include "compiler/ir.h"

#include <sstream>

#include "support/assert.h"

namespace dpa::compiler {

int ClassDef::scalar_slot(const std::string& field) const {
  for (std::size_t i = 0; i < scalar_fields.size(); ++i)
    if (scalar_fields[i] == field) return int(i);
  return -1;
}

int ClassDef::ptr_slot(const std::string& field) const {
  for (std::size_t i = 0; i < ptr_fields.size(); ++i)
    if (ptr_fields[i].name == field) return int(i);
  return -1;
}

ExprPtr Expr::c(double v) {
  auto e = std::make_shared<Expr>();
  e->kind = K::kConst;
  e->cval = v;
  return e;
}

ExprPtr Expr::v(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = K::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Expr::bin(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = K::kBin;
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

double Expr::eval(const std::map<std::string, double>& env) const {
  switch (kind) {
    case K::kConst:
      return cval;
    case K::kVar: {
      const auto it = env.find(var);
      DPA_CHECK(it != env.end()) << "undefined variable '" << var << "'";
      return it->second;
    }
    case K::kBin: {
      const double a = lhs->eval(env);
      const double b = rhs->eval(env);
      switch (op) {
        case BinOp::kAdd:
          return a + b;
        case BinOp::kSub:
          return a - b;
        case BinOp::kMul:
          return a * b;
        case BinOp::kDiv:
          return a / b;
        case BinOp::kLess:
          return a < b ? 1.0 : 0.0;
        case BinOp::kGreater:
          return a > b ? 1.0 : 0.0;
      }
      DPA_PANIC("bad binop");
    }
  }
  DPA_PANIC("bad expr kind");
}

void Expr::collect_vars(std::set<std::string>& out) const {
  switch (kind) {
    case K::kConst:
      return;
    case K::kVar:
      out.insert(var);
      return;
    case K::kBin:
      lhs->collect_vars(out);
      rhs->collect_vars(out);
      return;
  }
}

std::string Expr::to_string() const {
  switch (kind) {
    case K::kConst: {
      std::ostringstream os;
      os << cval;
      return os.str();
    }
    case K::kVar:
      return var;
    case K::kBin: {
      const char* sym = "?";
      switch (op) {
        case BinOp::kAdd:
          sym = "+";
          break;
        case BinOp::kSub:
          sym = "-";
          break;
        case BinOp::kMul:
          sym = "*";
          break;
        case BinOp::kDiv:
          sym = "/";
          break;
        case BinOp::kLess:
          sym = "<";
          break;
        case BinOp::kGreater:
          sym = ">";
          break;
      }
      std::string out = "(";
      out += lhs->to_string();
      out += ' ';
      out += sym;
      out += ' ';
      out += rhs->to_string();
      out += ')';
      return out;
    }
  }
  return "?";
}

namespace {
StmtPtr make(Stmt s) { return std::make_shared<Stmt>(std::move(s)); }
}  // namespace

StmtPtr Stmt::let(std::string dst, ExprPtr e) {
  Stmt s;
  s.kind = K::kLet;
  s.dst = std::move(dst);
  s.expr = std::move(e);
  return make(std::move(s));
}

StmtPtr Stmt::read_scalar(std::string dst, std::string ptr,
                          std::string field) {
  Stmt s;
  s.kind = K::kReadScalar;
  s.dst = std::move(dst);
  s.ptr = std::move(ptr);
  s.field = std::move(field);
  return make(std::move(s));
}

StmtPtr Stmt::read_ptr(std::string dst, std::string ptr, std::string field) {
  Stmt s;
  s.kind = K::kReadPtr;
  s.dst = std::move(dst);
  s.ptr = std::move(ptr);
  s.field = std::move(field);
  return make(std::move(s));
}

StmtPtr Stmt::accum(std::string cell, ExprPtr e) {
  Stmt s;
  s.kind = K::kAccum;
  s.dst = std::move(cell);
  s.expr = std::move(e);
  return make(std::move(s));
}

StmtPtr Stmt::charge(ExprPtr e) {
  Stmt s;
  s.kind = K::kCharge;
  s.expr = std::move(e);
  return make(std::move(s));
}

StmtPtr Stmt::if_(ExprPtr cond, std::vector<StmtPtr> then_body,
                  std::vector<StmtPtr> else_body) {
  Stmt s;
  s.kind = K::kIf;
  s.expr = std::move(cond);
  s.then_body = std::move(then_body);
  s.else_body = std::move(else_body);
  return make(std::move(s));
}

StmtPtr Stmt::spawn(std::string callee, std::string ptr) {
  Stmt s;
  s.kind = K::kSpawn;
  s.callee = std::move(callee);
  s.ptr = std::move(ptr);
  return make(std::move(s));
}

StmtPtr Stmt::spawn_children(std::string callee, std::string ptr) {
  Stmt s;
  s.kind = K::kSpawnChildren;
  s.callee = std::move(callee);
  s.ptr = std::move(ptr);
  return make(std::move(s));
}

const ClassDef& Module::cls(const std::string& name) const {
  for (const auto& c : classes)
    if (c.name == name) return c;
  DPA_PANIC("unknown class '" << name << "'");
}

const Function& Module::fn(const std::string& name) const {
  for (const auto& f : functions)
    if (f.name == name) return f;
  DPA_PANIC("unknown function '" << name << "'");
}

bool Module::has_class(const std::string& name) const {
  for (const auto& c : classes)
    if (c.name == name) return true;
  return false;
}

}  // namespace dpa::compiler
