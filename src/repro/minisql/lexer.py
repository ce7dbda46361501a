"""Tokeniser for the mini-SQL dialect.

The dialect is the one statement Kyrix sends its database:
``SELECT (* | expr [AS a], ...) FROM t [a] [[INNER] JOIN u [b] ON x = y]...
[WHERE expr]``.  Only the words that grammar reads are reserved, so a column
may be called ``count``, ``max`` or ``index``.  A ``?`` stands for a
constant bound when a prepared statement is executed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import SQLSyntaxError

KEYWORDS = {
    "select", "from", "where", "join", "inner", "on", "as", "and", "or", "not",
    "in", "between", "is", "null", "true", "false",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PLACEHOLDER = "placeholder"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


_OPERATOR_CHARS = set("=<>!+-*/%")
_TWO_CHAR_OPERATORS = {"<=", ">=", "<>", "!=", "=="}
_PUNCTUATION = set("(),.;*")


def tokenize(text: str) -> list[Token]:
    """Convert query text into a list of tokens ending with an EOF token."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char == "-" and index + 1 < length and text[index + 1] == "-":
            # Line comment.
            while index < length and text[index] != "\n":
                index += 1
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word.lower(), start))
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            start = index
            seen_dot = False
            seen_exponent = False
            while index < length:
                current = text[index]
                if current.isdigit():
                    index += 1
                elif current == "." and not seen_dot and not seen_exponent:
                    seen_dot = True
                    index += 1
                elif current in "eE" and not seen_exponent and index + 1 < length:
                    lookahead = text[index + 1]
                    if lookahead.isdigit() or lookahead in "+-":
                        seen_exponent = True
                        index += 2
                    else:
                        break
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, text[start:index], start))
            continue
        if char == "'":
            start = index
            index += 1
            chunks: list[str] = []
            while True:
                if index >= length:
                    raise SQLSyntaxError("unterminated string literal", start)
                if text[index] == "'":
                    if index + 1 < length and text[index + 1] == "'":
                        chunks.append("'")
                        index += 2
                        continue
                    index += 1
                    break
                chunks.append(text[index])
                index += 1
            tokens.append(Token(TokenType.STRING, "".join(chunks), start))
            continue
        if char in _OPERATOR_CHARS:
            two = text[index : index + 2]
            if two in _TWO_CHAR_OPERATORS:
                tokens.append(Token(TokenType.OPERATOR, two, index))
                index += 2
            else:
                tokens.append(Token(TokenType.OPERATOR, char, index))
                index += 1
            continue
        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, char, index))
            index += 1
            continue
        if char == "?":
            tokens.append(Token(TokenType.PLACEHOLDER, char, index))
            index += 1
            continue
        raise SQLSyntaxError(f"unexpected character {char!r}", index)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens
