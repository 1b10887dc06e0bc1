//===- ir/Serializer.cpp --------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Serializer.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace bpcr;

// -- Writing -----------------------------------------------------------------

namespace {

void writeOperand(std::string &Out, const Operand &O) {
  char Buf[32];
  switch (O.K) {
  case Operand::Kind::None:
    Out += '_';
    return;
  case Operand::Kind::Reg:
    std::snprintf(Buf, sizeof(Buf), "r%lld", static_cast<long long>(O.Val));
    Out += Buf;
    return;
  case Operand::Kind::Imm:
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(O.Val));
    Out += Buf;
    return;
  }
}

void writeInstruction(std::string &Out, const Instruction &I) {
  char Buf[64];
  Out += "  ";
  Out += opcodeName(I.Op);
  Out += ' ';
  switch (I.Op) {
  case Opcode::Br:
    writeOperand(Out, I.A);
    std::snprintf(Buf, sizeof(Buf), ", %u, %u", I.TrueTarget, I.FalseTarget);
    Out += Buf;
    if (I.Predicted != Prediction::Unknown) {
      Out += " predict ";
      Out += (I.Predicted == Prediction::Taken) ? 'T' : 'N';
    }
    if (I.BranchId != NoBranchId) {
      std::snprintf(Buf, sizeof(Buf), " id %d", I.BranchId);
      Out += Buf;
    }
    if (I.OrigBranchId != NoBranchId && I.OrigBranchId != I.BranchId) {
      std::snprintf(Buf, sizeof(Buf), " orig %d", I.OrigBranchId);
      Out += Buf;
    }
    break;
  case Opcode::Jmp:
    std::snprintf(Buf, sizeof(Buf), "%u", I.TrueTarget);
    Out += Buf;
    break;
  case Opcode::Ret:
    writeOperand(Out, I.A);
    break;
  case Opcode::Store:
    writeOperand(Out, I.A);
    Out += ", ";
    writeOperand(Out, I.B);
    Out += ", ";
    writeOperand(Out, I.C);
    break;
  case Opcode::Call: {
    std::snprintf(Buf, sizeof(Buf), "r%u, %u", I.Dst, I.Callee);
    Out += Buf;
    for (const Operand &Arg : I.Args) {
      Out += ", ";
      writeOperand(Out, Arg);
    }
    break;
  }
  case Opcode::Mov:
    std::snprintf(Buf, sizeof(Buf), "r%u, ", I.Dst);
    Out += Buf;
    writeOperand(Out, I.A);
    break;
  default: // ALU, compares, Load
    std::snprintf(Buf, sizeof(Buf), "r%u, ", I.Dst);
    Out += Buf;
    writeOperand(Out, I.A);
    Out += ", ";
    writeOperand(Out, I.B);
    if (isCompare(I.Op) && I.PtrCmp)
      Out += " ptr";
    break;
  }
  Out += '\n';
}

} // namespace

std::string bpcr::writeModuleText(const Module &M) {
  std::string Out;
  char Buf[96];
  Out += "module " + (M.Name.empty() ? std::string("unnamed") : M.Name) +
         "\n";
  std::snprintf(Buf, sizeof(Buf), "mem %llu\n",
                static_cast<unsigned long long>(M.MemWords));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "entry %u\n", M.EntryFunction);
  Out += Buf;

  // Initial memory as runs of up to 16 words, skipping zero runs.
  size_t I = 0;
  while (I < M.InitialMemory.size()) {
    if (M.InitialMemory[I] == 0) {
      ++I;
      continue;
    }
    size_t End = I;
    while (End < M.InitialMemory.size() && End - I < 16 &&
           M.InitialMemory[End] != 0)
      ++End;
    std::snprintf(Buf, sizeof(Buf), "data %zu", I);
    Out += Buf;
    for (size_t J = I; J < End; ++J) {
      std::snprintf(Buf, sizeof(Buf), " %lld",
                    static_cast<long long>(M.InitialMemory[J]));
      Out += Buf;
    }
    Out += '\n';
    I = End;
  }

  for (const Function &F : M.Functions) {
    std::snprintf(Buf, sizeof(Buf), "func %s params %u regs %u\n",
                  F.Name.empty() ? "unnamed" : F.Name.c_str(), F.NumParams,
                  F.NumRegs);
    Out += Buf;
    for (const BasicBlock &BB : F.Blocks) {
      Out += "block " + (BB.Name.empty() ? std::string("b") : BB.Name) +
             "\n";
      for (const Instruction &Ins : BB.Insts)
        writeInstruction(Out, Ins);
    }
    Out += "endfunc\n";
  }
  return Out;
}

// -- Parsing -----------------------------------------------------------------

namespace {

/// Splits a line into whitespace/comma separated tokens.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Line) {
    if (std::isspace(static_cast<unsigned char>(C)) || C == ',') {
      if (!Cur.empty()) {
        Out.push_back(Cur);
        Cur.clear();
      }
      continue;
    }
    Cur += C;
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

bool parseInt(const std::string &Tok, int64_t &V) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  V = std::strtoll(Tok.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseOperand(const std::string &Tok, Operand &O) {
  if (Tok == "_") {
    O = Operand::none();
    return true;
  }
  if (Tok.size() >= 2 && Tok[0] == 'r') {
    int64_t R = 0;
    if (!parseInt(Tok.substr(1), R) || R < 0 || R > 65535)
      return false;
    O = Operand::reg(static_cast<Reg>(R));
    return true;
  }
  int64_t V = 0;
  if (!parseInt(Tok, V))
    return false;
  O = Operand::imm(V);
  return true;
}

bool parseReg(const std::string &Tok, Reg &R) {
  Operand O;
  if (!parseOperand(Tok, O) || !O.isReg())
    return false;
  R = O.asReg();
  return true;
}

Opcode opcodeByName(const std::string &Name, bool &Ok) {
  static const struct {
    const char *Name;
    Opcode Op;
  } Table[] = {
      {"mov", Opcode::Mov},     {"add", Opcode::Add},
      {"sub", Opcode::Sub},     {"mul", Opcode::Mul},
      {"div", Opcode::Div},     {"rem", Opcode::Rem},
      {"and", Opcode::And},     {"or", Opcode::Or},
      {"xor", Opcode::Xor},     {"shl", Opcode::Shl},
      {"shr", Opcode::Shr},     {"cmpeq", Opcode::CmpEq},
      {"cmpne", Opcode::CmpNe}, {"cmplt", Opcode::CmpLt},
      {"cmple", Opcode::CmpLe}, {"cmpgt", Opcode::CmpGt},
      {"cmpge", Opcode::CmpGe}, {"load", Opcode::Load},
      {"store", Opcode::Store}, {"call", Opcode::Call},
      {"br", Opcode::Br},       {"jmp", Opcode::Jmp},
      {"ret", Opcode::Ret},
  };
  for (const auto &E : Table)
    if (Name == E.Name) {
      Ok = true;
      return E.Op;
    }
  Ok = false;
  return Opcode::Mov;
}

} // namespace

bool bpcr::parseModuleText(const std::string &Text, Module &Out,
                           std::string &Error) {
  Out = Module();
  Function *CurFunc = nullptr;
  BasicBlock *CurBlock = nullptr;

  size_t LineNo = 0;
  size_t Pos = 0;
  auto Fail = [&](const std::string &Msg) {
    Error = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  };

  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;

    // Strip comments.
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::vector<std::string> Tok = tokenize(Line);
    if (Tok.empty())
      continue;

    const std::string &Kw = Tok[0];
    if (Kw == "module") {
      if (Tok.size() != 2)
        return Fail("expected 'module <name>'");
      Out.Name = Tok[1];
      continue;
    }
    if (Kw == "mem") {
      int64_t V = 0;
      if (Tok.size() != 2 || !parseInt(Tok[1], V) || V < 0)
        return Fail("expected 'mem <words>'");
      if (static_cast<uint64_t>(V) > MaxMemWords)
        return Fail("memory size exceeds the limit of " +
                    std::to_string(MaxMemWords) + " words");
      Out.MemWords = static_cast<uint64_t>(V);
      continue;
    }
    if (Kw == "entry") {
      int64_t V = 0;
      if (Tok.size() != 2 || !parseInt(Tok[1], V) || V < 0)
        return Fail("expected 'entry <funcIdx>'");
      Out.EntryFunction = static_cast<uint32_t>(V);
      continue;
    }
    if (Kw == "data") {
      int64_t Start = 0;
      if (Tok.size() < 3 || !parseInt(Tok[1], Start) || Start < 0)
        return Fail("expected 'data <addr> <words...>'");
      // Checked before the resize: an unchecked offset would allocate up to
      // 2^63 words. The writer emits `mem` first.
      if (static_cast<uint64_t>(Start) > Out.MemWords ||
          Tok.size() - 2 > Out.MemWords - static_cast<uint64_t>(Start))
        return Fail("data section exceeds declared memory size");
      size_t Need = static_cast<size_t>(Start) + Tok.size() - 2;
      if (Out.InitialMemory.size() < Need)
        Out.InitialMemory.resize(Need, 0);
      for (size_t I = 2; I < Tok.size(); ++I) {
        int64_t V = 0;
        if (!parseInt(Tok[I], V))
          return Fail("bad data word '" + Tok[I] + "'");
        Out.InitialMemory[static_cast<size_t>(Start) + I - 2] = V;
      }
      continue;
    }
    if (Kw == "func") {
      if (Tok.size() != 6 || Tok[2] != "params" || Tok[4] != "regs")
        return Fail("expected 'func <name> params <n> regs <n>'");
      int64_t Params = 0, Regs = 0;
      if (!parseInt(Tok[3], Params) || !parseInt(Tok[5], Regs) ||
          Params < 0 || Regs < 0 || Regs > 65535 || Params > Regs)
        return Fail("bad func header counts");
      Function F;
      F.Name = Tok[1];
      F.NumParams = static_cast<uint32_t>(Params);
      F.NumRegs = static_cast<uint32_t>(Regs);
      Out.Functions.push_back(std::move(F));
      CurFunc = &Out.Functions.back();
      CurBlock = nullptr;
      continue;
    }
    if (Kw == "endfunc") {
      if (!CurFunc)
        return Fail("'endfunc' outside a function");
      CurFunc = nullptr;
      CurBlock = nullptr;
      continue;
    }
    if (Kw == "block") {
      if (!CurFunc)
        return Fail("'block' outside a function");
      if (Tok.size() != 2)
        return Fail("expected 'block <name>'");
      BasicBlock BB;
      BB.Name = Tok[1];
      CurFunc->Blocks.push_back(std::move(BB));
      CurBlock = &CurFunc->Blocks.back();
      continue;
    }

    // An instruction line.
    if (!CurBlock)
      return Fail("instruction outside a block");
    bool Ok = false;
    Instruction I;
    I.Op = opcodeByName(Kw, Ok);
    if (!Ok)
      return Fail("unknown opcode '" + Kw + "'");

    auto NeedTokens = [&](size_t N) {
      return Tok.size() >= N;
    };

    switch (I.Op) {
    case Opcode::Br: {
      int64_t TT = 0, FT = 0;
      if (!NeedTokens(4) || !parseOperand(Tok[1], I.A) ||
          !parseInt(Tok[2], TT) || !parseInt(Tok[3], FT) || TT < 0 || FT < 0)
        return Fail("expected 'br <cond>, <trueBlk>, <falseBlk> ...'");
      I.TrueTarget = static_cast<uint32_t>(TT);
      I.FalseTarget = static_cast<uint32_t>(FT);
      // Optional annotations in any order: predict T|N, id N, orig N.
      for (size_t T = 4; T < Tok.size();) {
        if (Tok[T] == "predict" && T + 1 < Tok.size()) {
          if (Tok[T + 1] == "T")
            I.Predicted = Prediction::Taken;
          else if (Tok[T + 1] == "N")
            I.Predicted = Prediction::NotTaken;
          else
            return Fail("bad predict annotation");
          T += 2;
        } else if ((Tok[T] == "id" || Tok[T] == "orig") &&
                   T + 1 < Tok.size()) {
          int64_t V = 0;
          if (!parseInt(Tok[T + 1], V))
            return Fail("bad branch id");
          if (Tok[T] == "id")
            I.BranchId = static_cast<int32_t>(V);
          else
            I.OrigBranchId = static_cast<int32_t>(V);
          T += 2;
        } else {
          return Fail("bad branch annotation '" + Tok[T] + "'");
        }
      }
      if (I.OrigBranchId == NoBranchId)
        I.OrigBranchId = I.BranchId;
      break;
    }
    case Opcode::Jmp: {
      int64_t T = 0;
      if (!NeedTokens(2) || !parseInt(Tok[1], T) || T < 0)
        return Fail("expected 'jmp <blk>'");
      I.TrueTarget = static_cast<uint32_t>(T);
      break;
    }
    case Opcode::Ret:
      if (!NeedTokens(2) || !parseOperand(Tok[1], I.A))
        return Fail("expected 'ret <val>'");
      break;
    case Opcode::Store:
      if (!NeedTokens(4) || !parseOperand(Tok[1], I.A) ||
          !parseOperand(Tok[2], I.B) || !parseOperand(Tok[3], I.C))
        return Fail("expected 'store <base>, <off>, <val>'");
      break;
    case Opcode::Call: {
      int64_t Callee = 0;
      if (!NeedTokens(3) || !parseReg(Tok[1], I.Dst) ||
          !parseInt(Tok[2], Callee) || Callee < 0)
        return Fail("expected 'call r<dst>, <funcIdx>, <args...>'");
      I.Callee = static_cast<uint32_t>(Callee);
      for (size_t T = 3; T < Tok.size(); ++T) {
        Operand Arg;
        if (!parseOperand(Tok[T], Arg))
          return Fail("bad call argument '" + Tok[T] + "'");
        I.Args.push_back(Arg);
      }
      break;
    }
    case Opcode::Mov:
      if (!NeedTokens(3) || !parseReg(Tok[1], I.Dst) ||
          !parseOperand(Tok[2], I.A))
        return Fail("expected 'mov r<dst>, <src>'");
      break;
    default: // ALU / compares / Load
      if (!NeedTokens(4) || !parseReg(Tok[1], I.Dst) ||
          !parseOperand(Tok[2], I.A) || !parseOperand(Tok[3], I.B))
        return Fail("expected '<op> r<dst>, <a>, <b>'");
      if (Tok.size() == 5 && Tok[4] == "ptr" && isCompare(I.Op))
        I.PtrCmp = true;
      else if (Tok.size() > 4)
        return Fail("trailing tokens after instruction");
      break;
    }

    CurBlock->Insts.push_back(std::move(I));
  }

  if (CurFunc)
    return Fail("missing 'endfunc' at end of input");
  if (Out.Functions.empty())
    return Fail("module has no functions");
  if (Out.InitialMemory.size() > Out.MemWords)
    return Fail("data section exceeds declared memory size");
  Error.clear();
  return true;
}

bool bpcr::writeModuleFile(const std::string &Path, const Module &M) {
  std::string Text = writeModuleText(M);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

bool bpcr::readModuleFile(const std::string &Path, Module &Out,
                          std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F) {
    Error = "cannot open " + Path;
    return false;
  }
  std::string Text;
  char Chunk[65536];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Text.append(Chunk, N);
  std::fclose(F);
  return parseModuleText(Text, Out, Error);
}
