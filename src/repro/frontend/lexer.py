"""Tokenizer for MiniLang source text."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CompileError(Exception):
    """A front-end error (lexing, parsing or type checking)."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")
        #: the message without its location
        self.message = message
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    INT = "int-literal"
    IDENT = "identifier"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "class", "global", "fn", "var", "if", "else", "while", "for",
        "return", "true", "false", "null", "new", "len", "int", "bool",
        "void",
    }
)

# Longest first so the maximal munch wins.
PUNCTUATION = (
    ">>>", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "->",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", ".", "=",
    "+", "-", "*", "/", "%", "<", ">", "!", "&", "|", "^",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r})"


def tokenize(source: str) -> list[Token]:
    """Produce the token list for a source string, ending with EOF."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token(TokenKind.INT, source[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
            i = j
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token(TokenKind.PUNCT, punct, line, col))
                i += len(punct)
                break
        else:
            raise CompileError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenKind.EOF, "", line, n - line_start + 1))
    return tokens
